package gc

import (
	"sort"

	"charonsim/internal/heap"
)

// This file implements a G1-style "mixed" collection, the second row of
// the paper's Table 1: after marking, the old generation's regions are
// ranked by garbage content — computed from the mark bitmaps, the Table 1
// note that G1 uses Bitmap Count "to identify the state of the entire
// heap" — and the garbage-first regions are *evacuated* (Copy) rather
// than compacted in place. Reclaimed regions become free-list space, so
// the heap is incrementally defragmented without a full compaction.
//
// Simplifications against real G1 (documented, not hidden): marking is a
// stop-the-world phase standing in for concurrent mark; remembered sets
// are approximated by the card-table scan that locates references into
// the collection set; and reclamation reuses the mark-sweep free-list
// machinery (evacuated husks have their mark bits cleared, evacuated
// copies are marked, then a sweep turns all dead ranges into free
// chunks), which keeps the heap linearly parseable even with objects
// spanning region boundaries.

// G1 policy constants.
const (
	// G1RegionBytes is the region size (scaled from G1's 1-32 MB regions
	// in the same proportion as the heaps).
	G1RegionBytes = 64 << 10
	// G1LiveThreshold: only regions at most this live (fraction) are
	// candidates (G1's G1MixedGCLiveThresholdPercent, default 85 — we use
	// the garbage-first spirit with a tighter bound at our scale).
	G1LiveThreshold = 0.60
	// G1MaxCSetRegions caps how many regions one mixed collection
	// evacuates (G1's incremental collection-set pacing).
	G1MaxCSetRegions = 8
)

// g1Region summarizes one old-generation region after marking.
type g1Region struct {
	index     int
	base      heap.Addr
	liveBytes uint64 // live bytes of objects *starting* in the region
}

// MixedGC performs a G1-style mixed collection of the old generation:
// mark, rank regions by garbage, evacuate the collection set, fix up
// references, and reclaim the emptied regions. Returns the recorded
// event.
func (c *Collector) MixedGC(reason string) *Event {
	ev := c.begin(MajorG1, reason)
	c.Stats.Mixed++

	c.markPhase(ev)

	regions := c.g1RegionLiveness(ev)
	cset := c.g1SelectCSet(regions)
	if len(cset) == 0 {
		// Nothing worth evacuating: the mixed collection degenerates to
		// its marking pause.
		return c.end(ev)
	}

	c.g1Evacuate(ev, regions, cset)
	c.g1FixupReferences(ev, regions, cset)

	// Reclaim: sweep dead ranges (husks, garbage, old fillers) into the
	// free list — the mark bitmaps were kept consistent by evacuation.
	freeBefore := c.oldAvailable()
	c.sweepOld(ev)
	if avail := c.oldAvailable(); avail > freeBefore {
		ev.ReclaimedBytes = avail - freeBefore
	}
	return c.end(ev)
}

// g1RegionBounds returns the old-gen region count and the region index of
// the allocation frontier (never collected: bump allocation lands there).
func (c *Collector) g1RegionBounds() (nregions, frontier int) {
	used := uint64(c.H.Old.Top - c.H.Old.Base)
	nregions = int(used / G1RegionBytes) // whole regions below the frontier
	frontier = nregions                  // the partial frontier region
	return
}

// g1RegionLiveness attributes each live object's bytes to the region it
// starts in. Each region's bitmap interrogation is recorded as a Bitmap
// Count invocation (Table 1's G1 usage: "scanning the bitmap to identify
// the state of the entire heap").
func (c *Collector) g1RegionLiveness(ev *Event) []g1Region {
	nregions, _ := c.g1RegionBounds()
	regions := make([]g1Region, nregions)
	for i := range regions {
		regions[i] = g1Region{index: i, base: c.H.Old.Base + heap.Addr(i*G1RegionBytes)}
		// Bitmap Count over this region's begin/end maps.
		c.record(Call{
			Prim: PrimBitmapCount,
			A:    c.Maps.BegByteAddr(c.Maps.WordIndex(regions[i].base)),
			N:    uint32(G1RegionBytes / 64),
		})
	}
	lo := c.Maps.WordIndex(c.H.Old.Base)
	hi := lo + uint64(c.H.Old.Used())/heap.WordBytes
	for idx := lo; ; {
		b, ok := c.Maps.FindNextBegin(idx, hi)
		if !ok {
			break
		}
		obj := c.Maps.AddrOfWord(b)
		size := uint64(c.H.SizeWords(obj) * heap.WordBytes)
		if r0 := int(obj-c.H.Old.Base) / G1RegionBytes; r0 < len(regions) {
			regions[r0].liveBytes += size
		}
		idx = b + size/heap.WordBytes
	}
	return regions
}

// g1SelectCSet picks the garbage-first collection set: eligible regions
// with live fraction <= G1LiveThreshold, most garbage first, capped at
// G1MaxCSetRegions, and bounded by the space available to receive the
// evacuated survivors.
func (c *Collector) g1SelectCSet(regions []g1Region) []int {
	var cand []int
	for i := range regions {
		r := &regions[i]
		liveFrac := float64(r.liveBytes) / G1RegionBytes
		if liveFrac <= G1LiveThreshold {
			cand = append(cand, i)
		}
	}
	sort.Slice(cand, func(a, b int) bool {
		ga := G1RegionBytes - regions[cand[a]].liveBytes
		gb := G1RegionBytes - regions[cand[b]].liveBytes
		if ga != gb {
			return ga > gb
		}
		return cand[a] < cand[b]
	})
	if len(cand) > G1MaxCSetRegions {
		cand = cand[:G1MaxCSetRegions]
	}
	// Evacuation-space pacing: drop regions whose survivors wouldn't fit.
	budget := c.oldAvailable()
	out := cand[:0]
	for _, i := range cand {
		need := regions[i].liveBytes
		if need > budget {
			continue
		}
		budget -= need
		out = append(out, i)
	}
	return out
}

// g1InCSet reports whether a falls in a collection-set region.
func g1InCSet(regions []g1Region, cset []int, oldBase heap.Addr, a heap.Addr) bool {
	idx := int(a-oldBase) / G1RegionBytes
	for _, r := range cset {
		if r == idx {
			return true
		}
	}
	return false
}

// g1Evacuate copies every live object *starting* in the collection set
// out of it, installing forwarding pointers and keeping the mark bitmaps
// consistent (husk bits cleared, copies marked) so the subsequent sweep
// reclaims exactly the dead ranges. Free-list chunks inside the CSet are
// dropped first so no evacuation destination lands in space about to be
// reclaimed.
func (c *Collector) g1Evacuate(ev *Event, regions []g1Region, cset []int) uint64 {
	inCSet := func(a heap.Addr) bool {
		return c.H.Old.Contains(a) && g1InCSet(regions, cset, c.H.Old.Base, a)
	}

	// Drop free chunks located inside the CSet.
	kept := c.freeList[:0]
	for _, ch := range c.freeList {
		if inCSet(ch.addr) {
			c.freeBytes -= uint64(ch.words * heap.WordBytes)
			continue
		}
		kept = append(kept, ch)
	}
	c.freeList = kept

	var moved uint64
	for _, ri := range cset {
		r := regions[ri]
		lo := c.Maps.WordIndex(r.base)
		hi := lo + G1RegionBytes/heap.WordBytes
		for idx := lo; ; {
			b, ok := c.Maps.FindNextBegin(idx, hi)
			if !ok {
				break
			}
			obj := c.Maps.AddrOfWord(b)
			size := c.H.SizeWords(obj)
			dst := c.allocOld(size)
			if dst == 0 {
				// Pacing guaranteed space; a failure means the free list
				// fragmented below this object's needs. Leave the rest of
				// the region in place (the sweep keeps it parseable).
				break
			}
			c.H.CopyWords(dst, obj, size)
			c.record(Call{Prim: PrimCopy, A: obj, B: dst, N: uint32(size * heap.WordBytes)})
			// Bitmap maintenance: the husk is dead, the copy is live.
			c.Maps.ClearObject(obj, size)
			c.Maps.MarkObject(dst, size)
			c.H.Forward(obj, dst)
			// The copy carried any old-to-young references with it: their
			// new slot locations must be card-tracked for the next scavenge.
			c.H.IterateRefSlots(dst, func(slot heap.Addr) {
				if t := heap.Addr(c.H.Word(slot)); t != 0 && c.H.InYoung(t) {
					c.Cards.Dirty(slot)
				}
			})
			bytes := uint64(size * heap.WordBytes)
			moved += bytes
			ev.CopiedBytes += bytes
			c.Stats.CopiedBytes += bytes
			idx = b + uint64(size)
		}
	}
	return moved
}

// g1FixupReferences rewrites every reference to an evacuated object. Real
// G1 consults remembered sets; we scan the card table (Search work) and
// walk the live objects, recording adjustment only for objects that held
// CSet references.
func (c *Collector) g1FixupReferences(ev *Event, regions []g1Region, cset []int) {
	inCSet := func(a heap.Addr) bool {
		return a != 0 && c.H.Old.Contains(a) && g1InCSet(regions, cset, c.H.Old.Base, a)
	}

	// Remembered-set scan cost: one Search pass over the old gen's cards.
	if c.H.Old.Used() > 0 {
		loCard := c.Cards.CardIndex(c.H.Old.Base)
		hiCard := c.Cards.CardIndex(c.H.Old.Top-1) + 1
		for pos := loCard; pos < hiCard; pos += SearchChunkCards {
			end := pos + SearchChunkCards
			if end > hiCard {
				end = hiCard
			}
			c.record(Call{Prim: PrimSearch, A: c.Cards.CardAddr(pos), N: uint32(end - pos)})
		}
	}

	// Fix roots.
	roots := c.H.Roots()
	for i, r := range roots {
		if inCSet(r) && c.H.IsForwarded(r) {
			roots[i] = c.H.Forwardee(r)
		}
	}

	// Fix heap slots: walk all live objects (at their post-evacuation
	// addresses) and rewrite CSet references.
	lo, hiAddr := c.H.Bounds()
	heapWords := uint64(hiAddr-lo) / heap.WordBytes
	for idx := uint64(0); ; {
		b, ok := c.Maps.FindNextBegin(idx, heapWords)
		if !ok {
			break
		}
		obj := c.Maps.AddrOfWord(b)
		size := uint64(c.H.SizeWords(obj))
		cur := obj
		if inCSet(obj) && c.H.IsForwarded(obj) {
			cur = c.H.Forwardee(obj)
		}
		updated := 0
		c.H.IterateRefSlots(cur, func(slot heap.Addr) {
			t := heap.Addr(c.H.Word(slot))
			if inCSet(t) && c.H.IsForwarded(t) {
				c.storeSlot(slot, c.H.Forwardee(t))
				updated++
			}
		})
		if updated > 0 {
			c.record(Call{Prim: PrimAdjust, A: cur, N: uint32(updated)})
		}
		idx = b + size
	}
	// Residual remembered-set maintenance (non-offloaded bookkeeping).
	c.record(Call{Prim: PrimOther, A: c.Lay.RootBase, N: uint32(16 + 2*ev.LiveObjects)})
}
