package exec

import (
	"slices"
	"testing"

	"charonsim/internal/cpu"
	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/heap"
)

// expandWhole is the reference expansion: inv's whole op stream in one
// slice, as the software path expanded it before invocations streamed out
// batch by batch.
func expandWhole(x *expander, inv *gc.Invocation, ev *gc.Event, major bool) []cpu.Op {
	var ops []cpu.Op
	switch inv.Prim() {
	case gc.PrimCopy:
		src, dst := uint64(inv.A()), uint64(inv.B())
		for off := uint32(0); off < inv.N; off += 64 {
			n := min(inv.N-off, 64)
			ld := int32(len(ops))
			ops = append(ops,
				cpu.Op{Kind: cpu.OpRead, Addr: src + uint64(off), Size: n, Dep: cpu.NoDep, Work: workCopyLoad},
				cpu.Op{Kind: cpu.OpWrite, Addr: dst + uint64(off), Size: n, Dep: ld, Work: workCopyStore},
			)
		}
	case gc.PrimSearch:
		for off := uint32(0); off < inv.N; off += 64 {
			ops = append(ops, cpu.Op{Kind: cpu.OpRead, Addr: uint64(inv.A()) + uint64(off), Size: min(inv.N-off, 64),
				Dep: cpu.NoDep, Work: workSearchLine})
		}
	case gc.PrimScanPush:
		pushes := 0
		for _, r := range ev.Refs[inv.RefOff : inv.RefOff+inv.N] {
			target, flags := r.Target(), r.Flags()
			slotLd := int32(len(ops))
			ops = append(ops, cpu.Op{Kind: cpu.OpRead, Addr: uint64(r.Slot()), Size: 8, Dep: cpu.NoDep, Work: workSlotLoad})
			if target == 0 || flags == gc.RefNull {
				continue
			}
			chk := int32(len(ops))
			if major {
				ops = append(ops, cpu.Op{Kind: cpu.OpRead, Addr: x.begByte(target), Size: 8, Dep: slotLd, Work: workHeaderChk})
			} else {
				ops = append(ops, cpu.Op{Kind: cpu.OpRead, Addr: uint64(target), Size: 8, Dep: slotLd, Work: workHeaderChk})
			}
			if flags&gc.RefNewlyMarked != 0 {
				ops = append(ops,
					cpu.Op{Kind: cpu.OpWrite, Addr: x.begByte(target), Size: 8, Dep: chk, Work: workMarkRMW},
					cpu.Op{Kind: cpu.OpWrite, Addr: x.endByte(target), Size: 8, Dep: chk, Work: 2},
				)
			}
			if flags&gc.RefPushed != 0 {
				ops = append(ops, cpu.Op{Kind: cpu.OpWrite, Addr: uint64(inv.B()) + uint64(pushes)*8, Size: 8, Dep: chk, Work: workPushStore})
				pushes++
			}
			if flags&gc.RefForwardUpdate != 0 {
				ops = append(ops, cpu.Op{Kind: cpu.OpWrite, Addr: uint64(r.Slot()), Size: 8, Dep: chk, Work: workSlotStore})
			}
			if flags&gc.RefCardDirty != 0 {
				ops = append(ops, cpu.Op{Kind: cpu.OpWrite, Addr: x.cardByte(r.Slot()), Size: 1, Dep: chk, Work: 2})
			}
		}
	case gc.PrimBitmapCount:
		for off := uint32(0); off < inv.N; off += 8 {
			a := uint64(inv.A()) + uint64(off)
			ops = append(ops,
				cpu.Op{Kind: cpu.OpRead, Addr: a, Size: 8, Dep: cpu.NoDep, Work: workBitmapWord},
				cpu.Op{Kind: cpu.OpRead, Addr: a + x.endOff, Size: 8, Dep: cpu.NoDep, Work: workBitmapWord},
			)
		}
	case gc.PrimAdjust:
		for i := uint32(0); i < inv.N; i++ {
			addr := uint64(inv.A()) + 16 + uint64(i)*8
			ld := int32(len(ops))
			ops = append(ops,
				cpu.Op{Kind: cpu.OpRead, Addr: addr, Size: 8, Dep: cpu.NoDep, Work: workAdjustSlot},
				cpu.Op{Kind: cpu.OpWrite, Addr: addr, Size: 8, Dep: ld, Work: 2},
			)
		}
		if inv.N == 0 {
			ops = append(ops, cpu.Op{Kind: cpu.OpCompute, Dep: cpu.NoDep, Work: 4})
		}
	case gc.PrimOther:
		if inv.A() != 0 {
			ops = append(ops, cpu.Op{Kind: cpu.OpRead, Addr: uint64(inv.A()), Size: 8, Dep: cpu.NoDep, Work: inv.N})
		} else {
			ops = append(ops, cpu.Op{Kind: cpu.OpCompute, Dep: cpu.NoDep, Work: inv.N})
		}
	}
	return ops
}

// allFlagsEvent is a major event of Scan&Push invocations in which seven
// null visits, one op each, precede a visit with all five flags set, so
// the most ops one reference can expand to (maxUnitOps) land on a batch
// that is one op short of full.
func allFlagsEvent(env Env) *gc.Event {
	ev := &gc.Event{Kind: gc.Major}
	for i := range 7 {
		ev.Refs = append(ev.Refs, gc.NewRefVisit(env.HeapLo+heap.Addr(8*i), 0, gc.RefNull))
	}
	ev.Refs = append(ev.Refs,
		gc.NewRefVisit(env.HeapLo+64, env.HeapLo+4096,
			gc.RefNull|gc.RefPushed|gc.RefForwardUpdate|gc.RefNewlyMarked|gc.RefCardDirty),
		gc.NewRefVisit(env.HeapLo+80, env.HeapLo+8192, gc.RefPushed|gc.RefForwardUpdate|gc.RefCardDirty))
	for range 3 {
		ev.Invocations = append(ev.Invocations,
			gc.Call{Prim: gc.PrimScanPush, A: env.HeapLo, B: env.HeapLo + 1<<20, N: uint32(len(ev.Refs))}.Pack())
	}
	return ev
}

// TestExpanderStreamsReference checks the streamed expansion against the
// whole one for every invocation of a recording, including one larger
// than a walk chunk, empty ones and a Scan&Push visit with every flag
// set: the batches concatenate to the reference stream, every batch but
// the last holds exactly opBatch ops, and only the last says so (empty
// only when the invocation has no ops).
func TestExpanderStreamsReference(t *testing.T) {
	evs, env := record(t, 4<<20)
	evs = append(withChunkEdges(evs, env), allFlagsEvent(env))
	x := newExpander(env.Lay, env.HeapLo, env.HeapBytes)
	var got []cpu.Op
	for _, ev := range evs {
		major := ev.Kind != gc.Minor
		for i := range ev.Invocations {
			inv := &ev.Invocations[i]
			want := expandWhole(x, inv, ev, major)
			x.start(inv, ev, major)
			got = got[:0]
			for last := false; !last; {
				var b []cpu.Op
				b, last = x.next()
				if !last && len(b) != opBatch || len(b) > opBatch || last && len(b) == 0 && len(got) > 0 {
					t.Fatalf("event %d invocation %d (%v): batch of %d ops, last %v", ev.Seq, i, inv.Prim(), len(b), last)
				}
				got = append(got, b...)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("event %d invocation %d (%v, N=%d): streamed %d ops, want %d\ngot  %v\nwant %v",
					ev.Seq, i, inv.Prim(), inv.N, len(got), len(want), got, want)
			}
		}
	}
}

// TestReplayWithMoreThreadsThanBuilt replays on platforms built for one
// thread with two: the threads share the one core, but each must expand
// its own invocations, so every expanded op executes exactly once.
func TestReplayWithMoreThreadsThanBuilt(t *testing.T) {
	evs, env := record(t, 4<<20)
	x := newExpander(env.Lay, env.HeapLo, env.HeapBytes)
	var want uint64
	for _, ev := range evs {
		for i := range ev.Invocations {
			want += uint64(len(expandWhole(x, &ev.Invocations[i], ev, ev.Kind != gc.Minor)))
		}
	}
	host := mustOpt(t, KindDDR4, env, 1, Options{}).(*hostPlatform)
	dead := mustOpt(t, KindCharon, env, 1, Options{Fault: fault.Config{FailAllUnits: true, Seed: 1}}).(*charonPlatform)
	for _, ev := range evs {
		host.Replay(ev, 2)
		dead.Replay(ev, 2)
	}
	for name, c := range map[string]*cpu.Core{"host": host.host.Cores[0], "all-failed charon": dead.host.Cores[0]} {
		if c.Stats.Ops != want {
			t.Errorf("%s: executed %d ops, want %d", name, c.Stats.Ops, want)
		}
	}
}
