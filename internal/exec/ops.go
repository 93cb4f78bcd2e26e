// Package exec binds the collector's recorded work descriptors to the
// platform timing models. A recorded GC event is replayed on one of four
// platforms — host over DDR4, host over HMC, Charon (near-memory or
// CPU-side), and Ideal (zero-cost primitives) — with the GC threads
// interleaved in global time order over the shared memory system. This is
// how every figure of the paper's evaluation is regenerated from a single
// functional GC run.
package exec

import (
	"charonsim/internal/cpu"
	"charonsim/internal/gc"
	"charonsim/internal/gcmeta"
	"charonsim/internal/heap"
)

// Software-path instruction cost estimates (dynamic instructions charged
// per micro-op). These drive the Figure 4 breakdown shares; the constants
// are exported indirectly through AblationWork for sensitivity benches.
const (
	workCopyLoad   = 8   // word-copy loop body per 64 B line (load half)
	workCopyStore  = 4   // store half
	workSearchLine = 24  // 64 byte-compares per card-table line
	workSlotLoad   = 3   // reference load + null/region checks
	workHeaderChk  = 4   // is_unmarked / forwarding test
	workPushStore  = 4   // stack push bookkeeping
	workSlotStore  = 3   // slot update
	workMarkRMW    = 10  // mark_obj bitmap read-modify-write pair
	workBitmapWord = 150 // Figure 8 bit-iteration: ~2.3 instr/bit over a 64-bit word
	workAdjustSlot = 16  // calc-new-pointer lookup + store
)

// expander turns invocations into cpu.Op streams for the software path.
// It needs the metadata layout to synthesize bitmap/card addresses.
//
// An invocation streams out one scheduling batch at a time: start binds
// it, and each next expands just enough of its units (a Copy or Search
// line, a Bitmap Count map word, a Scan&Push reference, an Adjust slot)
// to hand out the next opBatch ops. The buffer is fixed, so a 2 MB Copy
// costs no more memory than an 8-byte one, and a fresh platform's
// expanders allocate nothing while they replay.
type expander struct {
	lay    gc.Layout
	heapLo heap.Addr
	endOff uint64 // end-map base = beg-map base + endOff

	// The invocation being expanded and the expansion's cursor.
	inv    *gc.Invocation
	refs   []gc.RefVisit // a Scan&Push's reference visits
	major  bool
	unit   int // next unit to expand
	units  int // the invocation's unit count
	pushes int // referents a Scan&Push has pushed so far

	// buf holds expanded ops not yet handed out, after the out ops that
	// the last call to next handed out; base is the stream index of
	// buf[0] (recorded deps are relative to the invocation start).
	buf   []cpu.Op
	out   int
	base  int32
	store [opBatch - 1 + maxUnitOps]cpu.Op // backs buf
}

// maxUnitOps bounds the ops one unit expands to: a Scan&Push reference
// with every flag set (slot load, check, two mark writes, push, slot
// update, card dirtying). A unit is expanded only while buf holds fewer
// than opBatch ops, so buf never outgrows store.
const maxUnitOps = 7

func newExpander(lay gc.Layout, heapLo heap.Addr, heapBytes uint64) *expander {
	n := (heapBytes/heap.WordBytes + 63) / 64
	return &expander{lay: lay, heapLo: heapLo, endOff: (n*8 + 4095) / 4096 * 4096}
}

// begByte returns the beg-map byte address for a heap address.
func (x *expander) begByte(a heap.Addr) uint64 {
	return uint64(x.lay.BitmapBase) + uint64(a-x.heapLo)/heap.WordBytes/8
}

// endByte returns the end-map byte address for a heap address (the end
// map sits one page-rounded map-size after the beg map, matching
// gcmeta.MarkBitmaps).
func (x *expander) endByte(a heap.Addr) uint64 {
	return x.begByte(a) + x.endOff
}

// cardByte returns the card-table byte address guarding a heap slot.
func (x *expander) cardByte(a heap.Addr) uint64 {
	return uint64(x.lay.CardBase) + uint64(a-x.heapLo)/gcmeta.CardBytes
}

// start binds inv for expansion. Each thread owns its expander and
// finishes an invocation before starting the next.
func (x *expander) start(inv *gc.Invocation, ev *gc.Event, major bool) {
	x.inv, x.refs, x.major = inv, nil, major
	x.unit, x.pushes, x.buf, x.out, x.base = 0, 0, x.store[:0], 0, 0
	n := int(inv.N)
	switch inv.Prim() {
	case gc.PrimCopy, gc.PrimSearch:
		x.units = (n + 63) / 64 // one unit per line
	case gc.PrimScanPush:
		x.refs = ev.Refs[inv.RefOff : inv.RefOff+inv.N]
		x.units = n
	case gc.PrimBitmapCount:
		x.units = (n + 7) / 8 // one unit per map word
	case gc.PrimAdjust:
		x.units = max(n, 1) // an empty adjust is one compute op
	case gc.PrimOther:
		x.units = 1
	default:
		x.units = 0
	}
}

// next returns the bound invocation's next batch of at most opBatch ops
// and whether it is the last: every batch but the last holds exactly
// opBatch ops, and an invocation without ops yields one empty last
// batch. The batch is valid until the next call.
func (x *expander) next() ([]cpu.Op, bool) {
	x.base += int32(x.out)
	x.buf = x.store[:copy(x.store[:], x.buf[x.out:])]
	for len(x.buf) < opBatch && x.unit < x.units {
		x.expandUnit()
	}
	x.out = min(opBatch, len(x.buf))
	// Every unit expands to at least one op, so none follows the batch
	// only when every unit is expanded and buf holds nothing past it.
	return x.buf[:x.out], x.unit == x.units && len(x.buf) == x.out
}

// expandUnit appends the ops of the invocation's next unit to buf.
func (x *expander) expandUnit() {
	inv, u := x.inv, x.unit
	x.unit++
	idx := x.base + int32(len(x.buf)) // stream index of the unit's first op
	switch inv.Prim() {
	case gc.PrimCopy:
		// Word-copy loop at cache-line granularity: the store depends on
		// its load; successive lines are independent (the OoO window
		// overlaps them up to the MSHR limit).
		off := uint32(u) * 64
		n := min(inv.N-off, 64)
		x.buf = append(x.buf,
			cpu.Op{Kind: cpu.OpRead, Addr: uint64(inv.A()) + uint64(off), Size: n, Dep: cpu.NoDep, Work: workCopyLoad},
			cpu.Op{Kind: cpu.OpWrite, Addr: uint64(inv.B()) + uint64(off), Size: n, Dep: idx, Work: workCopyStore},
		)

	case gc.PrimSearch:
		// Sequential card-byte scan, line by line.
		off := uint32(u) * 64
		x.buf = append(x.buf, cpu.Op{Kind: cpu.OpRead, Addr: uint64(inv.A()) + uint64(off), Size: min(inv.N-off, 64),
			Dep: cpu.NoDep, Work: workSearchLine})

	case gc.PrimScanPush:
		r := &x.refs[u]
		target, flags := r.Target(), r.Flags()
		x.buf = append(x.buf, cpu.Op{Kind: cpu.OpRead, Addr: uint64(r.Slot()), Size: 8, Dep: cpu.NoDep, Work: workSlotLoad})
		if target == 0 || flags == gc.RefNull {
			return
		}
		// is_unmarked: header load (minor) or bitmap probe (major),
		// dependent on the slot value.
		chk := idx + 1
		if x.major {
			x.buf = append(x.buf, cpu.Op{Kind: cpu.OpRead, Addr: x.begByte(target), Size: 8, Dep: idx, Work: workHeaderChk})
		} else {
			x.buf = append(x.buf, cpu.Op{Kind: cpu.OpRead, Addr: uint64(target), Size: 8, Dep: idx, Work: workHeaderChk})
		}
		if flags&gc.RefNewlyMarked != 0 {
			x.buf = append(x.buf,
				cpu.Op{Kind: cpu.OpWrite, Addr: x.begByte(target), Size: 8, Dep: chk, Work: workMarkRMW},
				cpu.Op{Kind: cpu.OpWrite, Addr: x.endByte(target), Size: 8, Dep: chk, Work: 2},
			)
		}
		if flags&gc.RefPushed != 0 {
			addr := uint64(inv.B()) + uint64(x.pushes)*8
			x.pushes++
			x.buf = append(x.buf, cpu.Op{Kind: cpu.OpWrite, Addr: addr, Size: 8, Dep: chk, Work: workPushStore})
		}
		if flags&gc.RefForwardUpdate != 0 {
			x.buf = append(x.buf, cpu.Op{Kind: cpu.OpWrite, Addr: uint64(r.Slot()), Size: 8, Dep: chk, Work: workSlotStore})
		}
		if flags&gc.RefCardDirty != 0 {
			x.buf = append(x.buf, cpu.Op{Kind: cpu.OpWrite, Addr: x.cardByte(r.Slot()), Size: 1, Dep: chk, Work: 2})
		}

	case gc.PrimBitmapCount:
		// Figure 8 verbatim: iterate both maps bit by bit. Reads are
		// sequential; the per-word bit loop dominates.
		a := uint64(inv.A()) + uint64(u)*8
		x.buf = append(x.buf,
			cpu.Op{Kind: cpu.OpRead, Addr: a, Size: 8, Dep: cpu.NoDep, Work: workBitmapWord},
			cpu.Op{Kind: cpu.OpRead, Addr: a + x.endOff, Size: 8, Dep: cpu.NoDep, Work: workBitmapWord},
		)

	case gc.PrimAdjust:
		// N slot rewrites within the object at A.
		if inv.N == 0 {
			x.buf = append(x.buf, cpu.Op{Kind: cpu.OpCompute, Dep: cpu.NoDep, Work: 4})
			return
		}
		addr := uint64(inv.A()) + 16 + uint64(u)*8
		x.buf = append(x.buf,
			cpu.Op{Kind: cpu.OpRead, Addr: addr, Size: 8, Dep: cpu.NoDep, Work: workAdjustSlot},
			cpu.Op{Kind: cpu.OpWrite, Addr: addr, Size: 8, Dep: idx, Work: 2},
		)

	case gc.PrimOther:
		if inv.A() != 0 {
			x.buf = append(x.buf, cpu.Op{Kind: cpu.OpRead, Addr: uint64(inv.A()), Size: 8, Dep: cpu.NoDep, Work: inv.N})
		} else {
			x.buf = append(x.buf, cpu.Op{Kind: cpu.OpCompute, Dep: cpu.NoDep, Work: inv.N})
		}
	}
}
