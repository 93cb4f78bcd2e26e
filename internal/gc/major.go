package gc

import "charonsim/internal/heap"

// MajorGC runs the full mark-compact collection of Figure 3(b): a marking
// phase driven by Scan&Push with the begin/end mark bitmaps, a (cheap)
// summary phase, a pointer-adjustment phase whose destination calculations
// are the Bitmap Count primitive, and a compaction phase of Copy
// primitives that packs all live objects into a dense prefix of the old
// generation.
func (c *Collector) MajorGC(reason string) *Event {
	ev := c.begin(Major, reason)
	c.Stats.Majors++
	usedBefore := c.H.Used()

	c.markPhase(ev)

	newAddrs, liveOrder, totalLiveWords := c.summarize(ev)
	if totalLiveWords*heap.WordBytes > c.H.Old.Capacity() {
		// The live set cannot fit the old generation: the JVM would throw
		// OutOfMemoryError. Latch OOM and leave the heap unchanged (marks
		// remain but are cleared on the next mark phase).
		c.OOM = true
		return c.end(ev)
	}

	c.adjustPointers(ev, newAddrs, liveOrder)
	c.compact(ev, newAddrs, liveOrder, totalLiveWords)

	// Compaction eliminates every hole: the mark-sweep free list is gone.
	c.freeList = c.freeList[:0]
	c.freeBytes = 0

	ev.ReclaimedBytes = usedBefore - ev.LiveBytes
	return c.end(ev)
}

// markPhase traverses the object graph from the roots, marking live
// objects in the begin/end bitmaps (follow_contents, Figure 11).
func (c *Collector) markPhase(ev *Event) {
	c.Maps.ClearAll()
	// Bitmap clearing is bulk memset work on the host.
	c.record(Call{Prim: PrimOther, A: c.Maps.BegBase, N: uint32(c.Maps.SizeBytes() * 2 / 64)})

	c.Stack.Reset()
	for _, r := range c.H.Roots() {
		if r != 0 && c.Maps.MarkObject(r, c.H.SizeWords(r)) {
			c.Stack.Push(r)
		}
	}
	c.record(Call{Prim: PrimOther, A: c.Lay.RootBase, N: uint32(8 + 4*c.H.NumRoots())})

	for {
		obj, ok := c.Stack.Pop()
		if !ok {
			break
		}
		c.record(Call{Prim: PrimOther, A: c.Stack.TopAddr(), N: 10})
		c.scanMajorObject(ev, obj)

		size := uint64(c.H.SizeWords(obj) * heap.WordBytes)
		ev.LiveObjects++
		ev.LiveBytes += size
	}
}

// scanMajorObject is one Scan&Push invocation in the marking phase: load
// each reference, and for unmarked targets perform mark_obj (a bitmap
// read-modify-write) and push.
func (c *Collector) scanMajorObject(ev *Event, obj heap.Addr) {
	refOff := uint32(len(ev.Refs))
	nrefs := 0
	c.H.IterateRefSlots(obj, func(slot heap.Addr) {
		nrefs++
		t := heap.Addr(c.H.Word(slot))
		var flags uint8
		switch {
		case t == 0:
			flags = RefNull
		case c.Maps.IsMarked(t):
			// already traversed
		default:
			c.Maps.MarkObject(t, c.H.SizeWords(t))
			c.Stack.Push(t)
			flags = RefNewlyMarked | RefPushed
		}
		c.recordRef(slot, t, flags)
	})
	c.record(Call{
		Prim: PrimScanPush, A: obj, B: c.Stack.TopAddr(),
		N: uint32(nrefs), RefOff: refOff,
	})
}

// summarize computes each live object's destination. Region-level live
// counts form the summary phase; the per-object offset within its region
// is the Bitmap Count primitive exactly as Section 4.3 describes
// (live_words_in_range from the region start to the object).
func (c *Collector) summarize(ev *Event) (map[heap.Addr]heap.Addr, []heap.Addr, uint64) {
	lo, hi := c.H.Bounds()
	heapWords := uint64(hi-lo) / heap.WordBytes
	regionWords := uint64(RegionBytes / heap.WordBytes)
	nregions := (heapWords + regionWords - 1) / regionWords

	// Summary: per-region live-word counts (the cheap summary phase the
	// paper measures at <0.03% of MajorGC). Each region query is Bitmap
	// Count work. Note that objects spanning a region boundary are counted
	// by neither side under Figure 8's paired-bits semantics; HotSpot
	// carries an explicit partial_obj_size per region for them, and we
	// account for them below via the exact running total.
	for r := uint64(0); r < nregions; r++ {
		rlo, rhi := r*regionWords, (r+1)*regionWords
		if rhi > heapWords {
			rhi = heapWords
		}
		c.Maps.LiveWordsInRange(rlo, rhi)
	}

	// Per-object destinations, walking live objects in address order. The
	// collector issues a Bitmap Count over [region start, object) per
	// object (the paper's live_words_in_range usage); the destination
	// itself is the exact cumulative live-word prefix, which equals region
	// prefix + in-region offset + spanning-object (partial_obj_size)
	// correction.
	newAddrs := make(map[heap.Addr]heap.Addr, ev.LiveObjects)
	liveOrder := make([]heap.Addr, 0, ev.LiveObjects)
	idx := uint64(0)
	var cum uint64
	for {
		b, ok := c.Maps.FindNextBegin(idx, heapWords)
		if !ok {
			break
		}
		rlo := b / regionWords * regionWords
		c.Maps.LiveWordsInRange(rlo, b)
		// One Bitmap Count invocation: both maps read over [rlo, b).
		c.record(Call{
			Prim: PrimBitmapCount,
			A:    c.Maps.BegByteAddr(rlo),
			N:    uint32((b-rlo)/8 + 1),
		})
		obj := c.Maps.AddrOfWord(b)
		newAddrs[obj] = c.H.Old.Base + heap.Addr(cum*heap.WordBytes)
		liveOrder = append(liveOrder, obj)
		size := uint64(c.H.SizeWords(obj))
		cum += size
		idx = b + size
	}
	return newAddrs, liveOrder, cum
}

// adjustPointers rewrites every reference slot of every live object (and
// the roots) to its referent's destination address. Not offloaded: Figure
// 4(b)'s "Adjust Pointer" share.
func (c *Collector) adjustPointers(ev *Event, newAddrs map[heap.Addr]heap.Addr, liveOrder []heap.Addr) {
	for _, obj := range liveOrder {
		n := 0
		c.H.IterateRefSlots(obj, func(slot heap.Addr) {
			t := heap.Addr(c.H.Word(slot))
			if t == 0 {
				return
			}
			na, ok := newAddrs[t]
			if !ok {
				panic("gc: live object references unmarked target during adjust")
			}
			c.H.SetWord(slot, uint64(na))
			n++
		})
		c.record(Call{Prim: PrimAdjust, A: obj, N: uint32(n)})
	}
	roots := c.H.Roots()
	for i, r := range roots {
		if r == 0 {
			continue
		}
		roots[i] = newAddrs[r]
	}
	c.record(Call{Prim: PrimOther, A: c.Lay.RootBase, N: uint32(8 + 4*len(roots))})
}

// compact moves every live object to its destination in ascending address
// order (destinations never exceed sources, so in-place left-packing is
// safe), then resets the spaces.
func (c *Collector) compact(ev *Event, newAddrs map[heap.Addr]heap.Addr, liveOrder []heap.Addr, totalLiveWords uint64) {
	for _, obj := range liveOrder {
		size := c.H.SizeWords(obj)
		dst := newAddrs[obj]
		if dst > obj {
			panic("gc: compaction would move an object right")
		}
		if dst != obj {
			c.H.CopyWords(dst, obj, size)
			c.record(Call{Prim: PrimCopy, A: obj, B: dst, N: uint32(size * heap.WordBytes)})
			ev.CopiedBytes += uint64(size * heap.WordBytes)
		} else {
			// Dense-prefix object: checked but not moved.
			c.record(Call{Prim: PrimOther, A: obj, N: 6})
		}
	}

	c.H.Old.Top = c.H.Old.Base + heap.Addr(totalLiveWords*heap.WordBytes)
	c.H.Eden.Reset()
	c.H.From.Reset()
	c.H.To.Reset()

	// Young is empty: no old-to-young references can exist.
	c.Cards.ClearAll()
}
