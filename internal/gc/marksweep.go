package gc

import "charonsim/internal/heap"

// This file implements a CMS-style non-moving old-generation collection,
// the third row of the paper's Table 1: Copy and Scan&Push apply to CMS
// as-is, but Bitmap Count does not ("No compaction"). Young collections
// remain copying scavenges; the old generation is collected by
// mark-sweep, with dead ranges stamped as HotSpot-style filler objects
// (so the heap stays linearly parseable) and threaded onto a free list.
// When free-list allocation fails from fragmentation, the collector falls
// back to a full compaction — HotSpot's "concurrent mode failure".

// freeChunk is one hole in the old generation.
type freeChunk struct {
	addr  heap.Addr
	words int
}

// MarkSweepGC performs a CMS-style old-generation collection: mark the
// whole heap from the roots (Scan&Push with the mark bitmaps), then sweep
// the old generation's dead ranges into the free list. The young
// generation is left for the next MinorGC. Returns the recorded event.
func (c *Collector) MarkSweepGC(reason string) *Event {
	ev := c.begin(MajorMS, reason)
	c.Stats.MarkSweeps++
	oldUsedBefore := c.H.Old.Used()

	c.markPhase(ev)
	c.sweepOld(ev)

	// Live bytes were accumulated by markPhase over the whole heap; the
	// reclaimed amount is what the sweep carved out of the old gen.
	ev.ReclaimedBytes = oldUsedBefore - c.oldLiveBytes()
	return c.end(ev)
}

// oldLiveBytes sums old-gen bytes excluding fillers and free chunks.
func (c *Collector) oldLiveBytes() uint64 {
	var total uint64
	c.H.WalkSpace(c.H.Old, func(a heap.Addr) {
		if !c.H.IsFiller(a) {
			total += uint64(c.H.SizeWords(a) * heap.WordBytes)
		}
	})
	return total
}

// sweepOld walks the old generation with the mark bitmaps, replacing dead
// ranges (including previous fillers) with fresh fillers and rebuilding
// the free list. Sweeping streams over the bitmap and writes only dead
// headers — host-side work (PrimOther) in the paper's taxonomy, since CMS
// gets no Bitmap Count unit.
func (c *Collector) sweepOld(ev *Event) {
	c.freeList = c.freeList[:0]
	c.freeBytes = 0

	cursor := c.H.Old.Base
	top := c.H.Old.Top
	flushDead := func(lo, hi heap.Addr) {
		if hi <= lo {
			return
		}
		words := int(hi-lo) / heap.WordBytes
		c.H.WriteFiller(lo, words)
		c.freeList = append(c.freeList, freeChunk{addr: lo, words: words})
		c.freeBytes += uint64(words * heap.WordBytes)
	}

	deadStart := heap.Addr(0)
	for cursor < top {
		size := c.H.SizeWords(cursor)
		live := !c.H.IsFiller(cursor) && c.Maps.IsMarked(cursor)
		if live {
			if deadStart != 0 {
				flushDead(deadStart, cursor)
				deadStart = 0
			}
		} else if deadStart == 0 {
			deadStart = cursor
		}
		cursor += heap.Addr(size * heap.WordBytes)
	}
	if deadStart != 0 {
		// Trailing dead range: give it back to the bump pointer instead of
		// the free list (cheaper allocation, less fragmentation).
		c.H.Old.Top = deadStart
	}

	// Sweep cost: one linear pass over the old generation's bitmap plus a
	// header write per transition. Recorded as non-offloaded work.
	oldWords := uint64(c.H.Old.Used()) / heap.WordBytes
	c.record(Call{Prim: PrimOther, A: c.Maps.BegByteAddr(c.Maps.WordIndex(c.H.Old.Base)),
		N: uint32(oldWords/8 + uint64(len(c.freeList))*12)})
}

// allocOldFree allocates from the mark-sweep free list, first-fit,
// splitting chunks and re-stamping remainders as fillers. Returns 0 when
// no chunk fits (fragmentation).
func (c *Collector) allocOldFree(words int) heap.Addr {
	for i := range c.freeList {
		ch := &c.freeList[i]
		if ch.words < words {
			continue
		}
		a := ch.addr
		rest := ch.words - words
		// A remainder too small to hold a header is absorbed into the
		// allocation (HotSpot's minimum-object-size rule).
		if rest > 0 && rest < heap.HeaderWords {
			words += rest
			rest = 0
		}
		if rest == 0 {
			c.freeList = append(c.freeList[:i], c.freeList[i+1:]...)
		} else {
			ch.addr += heap.Addr(words * heap.WordBytes)
			ch.words = rest
			c.H.WriteFiller(ch.addr, rest)
		}
		c.freeBytes -= uint64(words * heap.WordBytes)
		return a
	}
	return 0
}

// oldAvailable is the promotion headroom in CMS mode: bump room plus the
// free list.
func (c *Collector) oldAvailable() uint64 {
	return c.H.Old.Free() + c.freeBytes
}
