package gc

import (
	"fmt"

	"charonsim/internal/gcmeta"
	"charonsim/internal/heap"
)

// SearchChunkCards is the card-table range covered by one offloaded Search
// invocation: 512 card bytes (256 KB of heap), a granularity large enough
// to amortize the offload packet and small enough to bound wasted scans.
const SearchChunkCards = 512

// RegionBytes is the compaction region granularity used by the summary
// phase (HotSpot's ParallelCompact uses fixed-size regions the same way;
// 16 KB keeps the per-object live_words_in_range queries — the Bitmap
// Count primitive — meaningfully sized at our heap scale).
const RegionBytes = 16384

// Layout places the collector's metadata structures in the simulated
// address space, above the heap.
type Layout struct {
	CardBase   heap.Addr
	BitmapBase heap.Addr
	StackBase  heap.Addr
	RootBase   heap.Addr
}

// DefaultLayout stacks metadata regions directly above a heap of
// heapBytes at base.
func DefaultLayout(base heap.Addr, heapBytes uint64) Layout {
	align := func(a heap.Addr) heap.Addr { return (a + 4095) / 4096 * 4096 }
	cardBase := align(base + heap.Addr(heapBytes))
	cardBytes := heap.Addr(heapBytes/gcmeta.CardBytes + 1)
	bitmapBase := align(cardBase + cardBytes)
	bitmapBytes := heap.Addr(heapBytes / 64 * 2) // beg + end maps
	stackBase := align(bitmapBase + bitmapBytes + 8192)
	rootBase := align(stackBase + 1<<22)
	return Layout{CardBase: cardBase, BitmapBase: bitmapBase, StackBase: stackBase, RootBase: rootBase}
}

// CheckHeap reports whether a heap of heapBytes at the default base
// (heap.DefaultConfig) lays out below AddrLimit, as New requires: an
// error names the limit. It allocates nothing, so a configuration can be
// refused before its heap is built.
func CheckHeap(heapBytes uint64) error {
	return checkLayout(heap.DefaultConfig(heapBytes).Base, heapBytes)
}

// checkLayout reports whether every address the log can hold of a heap
// of heapBytes at base lies below AddrLimit. The log addresses the heap,
// the card table, both mark bitmaps and the mark stack's 4 MB region, all
// below RootBase, and RootBase itself (a root scan's A operand); root
// slots are never logged. A mark stack deeper than its region runs on
// past RootBase, where Pack refuses any operand at the limit.
func checkLayout(base heap.Addr, heapBytes uint64) error {
	if base >= AddrLimit || heapBytes >= uint64(AddrLimit) || DefaultLayout(base, heapBytes).RootBase >= AddrLimit {
		return fmt.Errorf("gc: a %d MB heap at %#x does not fit with its metadata below the GC log's %d MB address limit",
			heapBytes>>20, uint64(base), uint64(AddrLimit)>>20)
	}
	return nil
}

// Stats accumulates collector activity across events.
type Stats struct {
	Minors, Majors uint64
	MarkSweeps     uint64
	Mixed          uint64
	PromotedBytes  uint64
	CopiedBytes    uint64
}

// Collector drives garbage collection over a heap.
type Collector struct {
	H     *heap.Heap
	Cards *gcmeta.CardTable
	Maps  *gcmeta.MarkBitmaps
	Stack *gcmeta.ObjectStack
	Lay   Layout

	// Recording enables invocation capture into each Event.
	Recording bool

	// Log holds all recorded events in order.
	Log []*Event

	// OOM is latched when a MajorGC cannot fit the live set into the old
	// generation; allocation then fails permanently.
	OOM bool

	// Mode selects the full-collection strategy (ParallelScavenge
	// compaction, CMS mark-sweep, or G1 mixed collections).
	Mode Mode

	// Mark-sweep free list over the old generation (CMS mode).
	freeList  []freeChunk
	freeBytes uint64

	// promoFailed collects objects self-forwarded during a scavenge whose
	// promotion could not be satisfied (fragmentation can defeat the
	// space guarantee in CMS mode); a compacting full GC follows.
	promoFailed []heap.Addr

	Stats Stats

	ev  *Event
	seq int

	// scratch for card processing
	cardSpan []heap.Addr // first object intersecting each old-gen card
}

// New wires a collector to h, installing the card-table write barrier.
// It panics when the layout reaches past AddrLimit (see checkLayout): a
// log of it could hold addresses the packing cannot.
func New(h *heap.Heap) *Collector {
	lo, hi := h.Bounds()
	if err := checkLayout(lo, h.Config().HeapBytes); err != nil {
		panic(err.Error())
	}
	lay := DefaultLayout(lo, h.Config().HeapBytes)
	c := &Collector{
		H:     h,
		Cards: gcmeta.NewCardTable(lo, hi, lay.CardBase),
		Maps:  gcmeta.NewMarkBitmaps(lo, hi, lay.BitmapBase),
		Stack: gcmeta.NewObjectStack(lay.StackBase),
		Lay:   lay,
	}
	h.Barrier = func(obj, slot, val heap.Addr) {
		if h.InOld(obj) && val != 0 && h.InYoung(val) {
			c.Cards.Dirty(slot)
		}
	}
	return c
}

// --- slot addressing ---------------------------------------------------------

// rootSlotAddr returns the simulated address of root slot i.
func (c *Collector) rootSlotAddr(i int) heap.Addr {
	return c.Lay.RootBase + heap.Addr(i*heap.WordBytes)
}

// isRootSlot distinguishes root-region slot addresses from heap slots.
func (c *Collector) isRootSlot(a heap.Addr) bool { return a >= c.Lay.RootBase }

// loadSlot reads a slot, whether in the heap or the root region.
func (c *Collector) loadSlot(a heap.Addr) heap.Addr {
	if c.isRootSlot(a) {
		return c.H.Root(int((a - c.Lay.RootBase) / heap.WordBytes))
	}
	return heap.Addr(c.H.Word(a))
}

// storeSlot writes a slot, dirtying the card when an old-generation slot
// receives a still-young value (the promoted-object case of Section 3.2).
func (c *Collector) storeSlot(a, val heap.Addr) (cardDirtied bool) {
	if c.isRootSlot(a) {
		c.H.SetRoot(int((a-c.Lay.RootBase)/heap.WordBytes), val)
		return false
	}
	c.H.SetWord(a, uint64(val))
	if c.H.InOld(a) && val != 0 && c.H.InYoung(val) {
		c.Cards.Dirty(a)
		return true
	}
	return false
}

// --- event lifecycle ----------------------------------------------------------

func (c *Collector) begin(kind Kind, reason string) *Event {
	ev := &Event{Kind: kind, Seq: c.seq, Reason: reason}
	c.seq++
	if c.Recording {
		c.ev = ev
	}
	return ev
}

// end closes ev and appends it to the log. Its invocation and reference
// slices move to arrays of exactly their length: the append slack of a
// finished event would otherwise live as long as the log.
func (c *Collector) end(ev *Event) *Event {
	c.ev = nil
	ev.Invocations = exact(ev.Invocations)
	ev.Refs = exact(ev.Refs)
	c.Log = append(c.Log, ev)
	return ev
}

// exact returns s in an array of exactly len(s) elements.
func exact[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// EventLog returns the recorded events without the collector's
// functional state.
func (c *Collector) EventLog() EventLog { return EventLog{Log: c.Log} }

// --- MinorGC -------------------------------------------------------------------

// minorSafe reports whether promotion is guaranteed to succeed: the old
// generation has room (bump space plus, in CMS mode, the free list) for
// the worst case (all used young bytes live).
func (c *Collector) minorSafe() bool {
	return c.oldAvailable() >= c.H.Eden.Used()+c.H.From.Used()
}

// Collect runs the policy HotSpot applies on allocation failure: a
// MinorGC, preceded by a full collection when promotion cannot be
// guaranteed. In CMS mode the full collection is a mark-sweep first, with
// compaction only as the concurrent-mode-failure fallback.
func (c *Collector) Collect(reason string) {
	if c.OOM {
		return
	}
	if !c.minorSafe() {
		switch c.Mode {
		case ModeCMS:
			c.MarkSweepGC(reason + "+promotion-guarantee")
		case ModeG1:
			c.MixedGC(reason + "+promotion-guarantee")
		}
		if !c.minorSafe() {
			c.MajorGC(reason + "+promotion-guarantee")
		}
		if c.OOM {
			return
		}
	}
	c.MinorGC(reason)
}

// MinorGC scavenges the young generation: Figure 3(a)'s flow.
func (c *Collector) MinorGC(reason string) *Event {
	ev := c.begin(Minor, reason)
	c.Stats.Minors++
	youngUsedBefore := c.H.Eden.Used() + c.H.From.Used()

	c.Stack.Reset()

	// Search: scan the old generation's card table for old-to-young refs.
	c.scanCards(ev)

	// Root set: push root slots holding young references.
	nroots := 0
	for i, r := range c.H.Roots() {
		if r != 0 && c.needsScavenge(r) {
			c.Stack.Push(c.rootSlotAddr(i))
			nroots++
		}
	}
	c.record(Call{Prim: PrimOther, A: c.Lay.RootBase, N: uint32(8 + 4*c.H.NumRoots())})

	// Drain: pop slot, copy/promote its referent, scan the new copy.
	c.drainMinor(ev)

	if len(c.promoFailed) > 0 {
		// Promotion failure: the young spaces cannot be flipped (live
		// self-forwarded objects remain in eden/from, and To already holds
		// copies). Strip the self-forwarding installations and run a
		// compacting full collection, exactly HotSpot's recovery.
		for _, a := range c.promoFailed {
			c.H.ClearForward(a)
		}
		c.promoFailed = c.promoFailed[:0]
		ev.Reason += "+promotion-failure"
		c.end(ev)
		c.MajorGC(reason + "+promotion-failure")
		return ev
	}

	// Flip spaces: eden and from are now garbage; to becomes from. The
	// bytes that stayed in young are copied minus promoted (now in To).
	ev.ReclaimedBytes = youngUsedBefore + ev.PromotedBytes - ev.CopiedBytes
	c.H.Eden.Reset()
	c.H.From.Reset()
	c.H.SwapSurvivors()

	return c.end(ev)
}

// scanCards performs the Search primitive over the old generation's cards
// and processes every dirty card found.
func (c *Collector) scanCards(ev *Event) {
	if c.H.Old.Used() == 0 {
		return
	}
	loCard := c.Cards.CardIndex(c.H.Old.Base)
	hiCard := c.Cards.CardIndex(c.H.Old.Top-1) + 1

	// Build the card-span index: first object intersecting each card.
	c.buildCardSpans(loCard, hiCard)

	for pos := loCard; pos < hiCard; pos += SearchChunkCards {
		chunkEnd := pos + SearchChunkCards
		if chunkEnd > hiCard {
			chunkEnd = hiCard
		}
		c.record(Call{Prim: PrimSearch, A: c.Cards.CardAddr(pos), N: uint32(chunkEnd - pos)})
		dirty := c.Cards.DirtyCards(pos, chunkEnd, nil)
		for _, idx := range dirty {
			c.Cards.Clean(idx)
			c.processCard(ev, idx, loCard)
		}
	}
}

// buildCardSpans records, for each old-gen card, the first object whose
// body intersects it (HotSpot keeps an equivalent block-offset table).
func (c *Collector) buildCardSpans(loCard, hiCard int) {
	n := hiCard - loCard
	if cap(c.cardSpan) < n {
		c.cardSpan = make([]heap.Addr, n)
	}
	c.cardSpan = c.cardSpan[:n]
	for i := range c.cardSpan {
		c.cardSpan[i] = 0
	}
	c.H.WalkSpace(c.H.Old, func(a heap.Addr) {
		end := a + heap.Addr(c.H.SizeWords(a)*heap.WordBytes)
		first := c.Cards.CardIndex(a) - loCard
		last := c.Cards.CardIndex(end-1) - loCard
		for i := first; i <= last; i++ {
			if c.cardSpan[i] == 0 {
				c.cardSpan[i] = a
			}
		}
	})
}

// processCard scans the reference slots that fall within a dirty card,
// evacuating young referents. Each (object, card) scan is one Scan&Push
// invocation.
func (c *Collector) processCard(ev *Event, idx, loCard int) {
	cardLo, cardHi := c.Cards.CardRange(idx)
	obj := c.cardSpan[idx-loCard]
	if obj == 0 {
		return
	}
	for obj < cardHi && obj < c.H.Old.Top {
		refOff := uint32(len(ev.Refs))
		nrefs := 0
		c.H.IterateRefSlots(obj, func(slot heap.Addr) {
			if slot < cardLo || slot >= cardHi {
				return
			}
			nrefs++
			c.visitMinorSlot(ev, slot)
		})
		if nrefs > 0 {
			c.record(Call{
				Prim: PrimScanPush, A: obj, B: c.Stack.TopAddr(),
				N: uint32(nrefs), RefOff: refOff,
			})
		}
		obj += heap.Addr(c.H.SizeWords(obj) * heap.WordBytes)
	}
}

// needsScavenge reports whether t lives in a scavenge source space (eden
// or from). To-space copies are already evacuated this cycle and must
// never be re-copied.
func (c *Collector) needsScavenge(t heap.Addr) bool {
	return c.H.Eden.Contains(t) || c.H.From.Contains(t)
}

// visitMinorSlot applies scavenge semantics to one reference slot: update
// if the target is already forwarded, otherwise push the slot for later
// processing.
func (c *Collector) visitMinorSlot(ev *Event, slot heap.Addr) {
	t := c.loadSlot(slot)
	var flags uint8
	switch {
	case t == 0:
		flags = RefNull
	case !c.needsScavenge(t):
		// old-to-old, or already-evacuated to-space copy: nothing to do
	case c.H.IsForwarded(t):
		flags = RefForwardUpdate
		if c.storeSlot(slot, c.H.Forwardee(t)) {
			flags |= RefCardDirty
		}
	default:
		flags = RefPushed
		c.Stack.Push(slot)
	}
	c.recordRef(slot, t, flags)
}

// drainMinor empties the slot stack, evacuating and scanning objects.
func (c *Collector) drainMinor(ev *Event) {
	for {
		slot, ok := c.Stack.Pop()
		if !ok {
			return
		}
		// Pop + processed check: small, non-offloaded (Section 3.3).
		c.record(Call{Prim: PrimOther, A: c.Stack.TopAddr(), N: 12})

		t := c.loadSlot(slot)
		if t == 0 || !c.needsScavenge(t) {
			continue
		}
		if c.H.IsForwarded(t) {
			c.storeSlot(slot, c.H.Forwardee(t))
			continue
		}
		newAddr := c.evacuate(ev, t)
		c.storeSlot(slot, newAddr)
		c.scanMinorObject(ev, newAddr)
	}
}

// evacuate copies a live young object to the To space, or promotes it to
// the old generation when aged (or on survivor overflow). This is the
// Copy primitive.
func (c *Collector) evacuate(ev *Event, obj heap.Addr) heap.Addr {
	size := c.H.SizeWords(obj)
	age := c.H.Age(obj)

	var dst heap.Addr
	promoted := false
	if age+1 >= c.H.Config().TenureAge {
		dst = c.allocOld(size)
		promoted = dst != 0
	}
	if dst == 0 {
		dst = c.allocTo(size)
	}
	if dst == 0 {
		dst = c.allocOld(size) // survivor overflow
		promoted = dst != 0
	}
	if dst == 0 {
		// Promotion failure (HotSpot: possible under CMS fragmentation):
		// self-forward the object in place; the scavenge completes and a
		// compacting full GC follows immediately (MinorGC's epilogue).
		c.H.Forward(obj, obj)
		c.promoFailed = append(c.promoFailed, obj)
		ev.LiveObjects++
		sz := uint64(size * heap.WordBytes)
		ev.LiveBytes += sz
		return obj
	}

	c.H.CopyWords(dst, obj, size)
	c.record(Call{Prim: PrimCopy, A: obj, B: dst, N: uint32(size * heap.WordBytes)})
	c.H.SetAge(dst, age+1)
	c.H.Forward(obj, dst)

	bytes := uint64(size * heap.WordBytes)
	ev.CopiedBytes += bytes
	ev.LiveObjects++
	ev.LiveBytes += bytes
	c.Stats.CopiedBytes += bytes
	if promoted {
		ev.PromotedBytes += bytes
		c.Stats.PromotedBytes += bytes
		c.H.Stats.PromotedObjects++
		c.H.Stats.PromotedBytes += bytes
	}
	return dst
}

func (c *Collector) allocTo(words int) heap.Addr {
	s := c.H.To
	need := heap.Addr(words * heap.WordBytes)
	if s.Top+need > s.Limit {
		return 0
	}
	a := s.Top
	s.Top += need
	return a
}

func (c *Collector) allocOld(words int) heap.Addr {
	s := c.H.Old
	need := heap.Addr(words * heap.WordBytes)
	if s.Top+need <= s.Limit {
		a := s.Top
		s.Top += need
		return a
	}
	// Bump space exhausted: fall back to the mark-sweep free list.
	return c.allocOldFree(words)
}

// scanMinorObject iterates a freshly copied object's reference slots
// (push_contents, Figure 11): one Scan&Push invocation.
func (c *Collector) scanMinorObject(ev *Event, obj heap.Addr) {
	refOff := uint32(len(ev.Refs))
	nrefs := 0
	c.H.IterateRefSlots(obj, func(slot heap.Addr) {
		nrefs++
		c.visitMinorSlot(ev, slot)
	})
	c.record(Call{
		Prim: PrimScanPush, A: obj, B: c.Stack.TopAddr(),
		N: uint32(nrefs), RefOff: refOff,
	})
}

// --- verification helpers -----------------------------------------------------

// Reachable computes the current reachable object set by walking from the
// roots (test/verification helper, not part of collection).
func (c *Collector) Reachable() map[heap.Addr]bool {
	seen := map[heap.Addr]bool{}
	var stack []heap.Addr
	for _, r := range c.H.Roots() {
		if r != 0 && !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		a := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		c.H.IterateRefSlots(a, func(slot heap.Addr) {
			t := heap.Addr(c.H.Word(slot))
			if t != 0 && !seen[t] {
				if !c.H.Contains(t) {
					panic(fmt.Sprintf("gc: dangling reference %#x in slot %#x", uint64(t), uint64(slot)))
				}
				seen[t] = true
				stack = append(stack, t)
			}
		})
	}
	return seen
}

// LiveBytes sums the sizes of currently reachable objects.
func (c *Collector) LiveBytes() uint64 {
	var total uint64
	for a := range c.Reachable() {
		total += uint64(c.H.SizeWords(a) * heap.WordBytes)
	}
	return total
}
