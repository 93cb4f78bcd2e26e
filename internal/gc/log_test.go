package gc_test

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"charonsim/internal/gc"
	"charonsim/internal/heap"
	"charonsim/internal/workload"
)

// TestLogRecordSizes pins the in-memory size of the two records a GC log
// is made of: a recording keeps millions of them for as long as it is
// replayed. Invocations hold A as a 32-bit byte address, B as a word
// address beside Prim, and no reference count of their own; reference
// visits hold slot and target as word addresses beside their flags.
func TestLogRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(gc.Invocation{}); n != 16 {
		t.Errorf("sizeof(Invocation) = %d, want 16", n)
	}
	if n := unsafe.Sizeof(gc.RefVisit{}); n != 8 {
		t.Errorf("sizeof(RefVisit) = %d, want 8", n)
	}
}

// checkCallRoundTrip fails t unless c packs into an invocation whose
// accessors and fields give c back.
func checkCallRoundTrip(t *testing.T, c gc.Call) {
	t.Helper()
	inv := c.Pack()
	if inv.Prim() != c.Prim || inv.A() != c.A || inv.B() != c.B || inv.N != c.N || inv.RefOff != c.RefOff {
		t.Fatalf("Pack(%+v) reads back prim %v A %#x B %#x N %d RefOff %d",
			c, inv.Prim(), uint64(inv.A()), uint64(inv.B()), inv.N, inv.RefOff)
	}
}

// checkVisitRoundTrip fails t unless a visit packed from slot, target and
// flags reads them back.
func checkVisitRoundTrip(t *testing.T, slot, target heap.Addr, flags uint8) {
	t.Helper()
	v := gc.NewRefVisit(slot, target, flags)
	if v.Slot() != slot || v.Target() != target || v.Flags() != flags {
		t.Fatalf("NewRefVisit(%#x, %#x, %#b) reads back %#x, %#x, %#b",
			uint64(slot), uint64(target), flags, uint64(v.Slot()), uint64(v.Target()), v.Flags())
	}
}

// mustPanic fails t unless pack panics with a message containing want.
func mustPanic(t *testing.T, what, want string, pack func()) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		if !strings.Contains(msg, want) {
			t.Errorf("%s: recovered %q, want a panic naming %q", what, msg, want)
		}
	}()
	pack()
}

const allFlags = gc.RefNull | gc.RefPushed | gc.RefForwardUpdate | gc.RefNewlyMarked | gc.RefCardDirty

// TestLogRecordPackingRoundTrip packs every primitive and all 32
// combinations of the five reference flags with A at byte addresses up to
// the last one below AddrLimit and B, slot and target at word addresses up
// to the last one, and reads each back; then it checks that misaligned
// and out-of-budget operands are refused, never truncated.
func TestLogRecordPackingRoundTrip(t *testing.T) {
	words := []heap.Addr{0, 8, 1 << 28, 1<<31 + 8, gc.AddrLimit / 2, gc.AddrLimit - 8}
	bytes := append([]heap.Addr{1, 7, 1<<28 + 3, gc.AddrLimit - 1}, words...)
	for p := gc.Prim(0); p < gc.NumPrims; p++ {
		for i, b := range words {
			for _, a := range bytes {
				checkCallRoundTrip(t, gc.Call{Prim: p, A: a, B: b, N: ^uint32(0) - uint32(i), RefOff: uint32(a)})
			}
			checkCallRoundTrip(t, gc.Call{Prim: p, B: b})
		}
	}
	if allFlags != 31 {
		t.Fatalf("the five reference flags are %#b, want the low five bits", allFlags)
	}
	for flags := uint8(0); flags <= allFlags; flags++ {
		for _, slot := range words {
			for _, target := range words {
				checkVisitRoundTrip(t, slot, target, flags)
			}
		}
	}

	for _, a := range []heap.Addr{gc.AddrLimit, gc.AddrLimit + 8, 1 << 62, ^heap.Addr(0)} {
		mustPanic(t, "Pack with A past the limit", "operand A ", func() { gc.Call{Prim: gc.PrimCopy, A: a, B: 8}.Pack() })
	}
	for _, b := range []heap.Addr{1, 4, 1<<28 + 7, gc.AddrLimit - 1, gc.AddrLimit, 1 << 40} {
		mustPanic(t, "Pack with a misaligned or over-limit B", "operand B ", func() { gc.Call{Prim: gc.PrimCopy, A: 8, B: b}.Pack() })
		mustPanic(t, "NewRefVisit with a misaligned or over-limit slot", "operand slot ", func() { gc.NewRefVisit(b, 8, 0) })
		mustPanic(t, "NewRefVisit with a misaligned or over-limit target", "operand target ", func() { gc.NewRefVisit(8, b, 0) })
	}
	mustPanic(t, "Pack with an unknown primitive", "operand Prim ", func() { gc.Call{Prim: gc.NumPrims}.Pack() })
	mustPanic(t, "NewRefVisit with an unknown flag", "operand flags ", func() { gc.NewRefVisit(8, 8, allFlags+1) })
}

// FuzzLogRecordPacking checks the round trip on arbitrary operands in the
// log's domain: any primitive, any N and RefOff, any A below AddrLimit,
// any 8-byte-aligned B, slot and target below AddrLimit and any set of
// the five reference flags.
func FuzzLogRecordPacking(f *testing.F) {
	f.Add(uint8(gc.PrimScanPush), uint64(1<<28), uint64(gc.AddrLimit-8), uint32(3), uint32(7), uint64(1<<28+16), uint64(1<<28), uint8(gc.RefPushed))
	f.Fuzz(func(t *testing.T, prim uint8, a, b uint64, n, off uint32, slot, target uint64, flags uint8) {
		word := func(x uint64) heap.Addr { return heap.Addr(x) % gc.AddrLimit &^ (heap.WordBytes - 1) }
		checkCallRoundTrip(t, gc.Call{Prim: gc.Prim(prim % uint8(gc.NumPrims)), A: heap.Addr(a) % gc.AddrLimit,
			B: word(b), N: n, RefOff: off})
		checkVisitRoundTrip(t, word(slot), word(target), flags&allFlags)
	})
}

// TestNewRejectsOversizeLayout places a heap so close to AddrLimit that
// its metadata regions reach past it: gc.New must refuse it rather than
// record addresses the log cannot hold. CheckHeap applies the same check
// to a heap size at the default base without building the heap: the
// largest heap it accepts is about 3.6 GB.
func TestNewRejectsOversizeLayout(t *testing.T) {
	const heapBytes = 1 << 20
	ok := heap.New(heap.Config{Base: 1 << 28, HeapBytes: heapBytes}, heap.NewTable())
	if lay := gc.New(ok).Lay; lay.RootBase >= gc.AddrLimit {
		t.Fatalf("default layout root base %#x past the limit", uint64(lay.RootBase))
	}
	// A 1 MB heap's root base sits 0x50b000 above its base: at this base
	// it lands on the limit itself, and a root scan records it as A.
	const rootOnLimit = gc.AddrLimit - 0x50b000
	if lay := gc.DefaultLayout(rootOnLimit, heapBytes); lay.RootBase != gc.AddrLimit {
		t.Fatalf("root base %#x, want the limit", uint64(lay.RootBase))
	}
	for _, base := range []heap.Addr{rootOnLimit, gc.AddrLimit - heapBytes, gc.AddrLimit, 1 << 62} {
		h := heap.New(heap.Config{Base: base, HeapBytes: heapBytes}, heap.NewTable())
		mustPanic(t, fmt.Sprintf("gc.New of a heap at %#x", uint64(base)), "address limit", func() { gc.New(h) })
	}

	for _, size := range []uint64{heapBytes, 1 << 30, 3600 << 20} {
		if err := gc.CheckHeap(size); err != nil {
			t.Errorf("CheckHeap(%d MB) = %v, want nil", size>>20, err)
		}
	}
	for _, size := range []uint64{3800 << 20, uint64(gc.AddrLimit), 1 << 63, ^uint64(0)} {
		if err := gc.CheckHeap(size); err == nil || !strings.Contains(err.Error(), "4096 MB address limit") {
			t.Errorf("CheckHeap(%d MB) = %v, want an error naming the 4096 MB address limit", size>>20, err)
		}
	}
}

// recordedLogs records BS and PR at factor 1.5 under each collector mode.
func recordedLogs(t *testing.T) map[string][]*gc.Event {
	t.Helper()
	logs := map[string][]*gc.Event{}
	for _, name := range []string{"BS", "PR"} {
		for _, mode := range []gc.Mode{gc.ModePS, gc.ModeCMS, gc.ModeG1} {
			w, err := workload.New(name)
			if err != nil {
				t.Fatal(err)
			}
			col, err := workload.RunRecordedMode(w, 1.5, mode)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			log := col.EventLog().Log
			if len(log) == 0 {
				t.Fatalf("%s/%v: empty log", name, mode)
			}
			logs[name+"/"+mode.String()] = log
		}
	}
	return logs
}

// TestLogEventsExactSize checks that every closed event holds its
// invocations and reference visits in arrays of exactly their length, so
// a kept log carries no append slack.
func TestLogEventsExactSize(t *testing.T) {
	for name, log := range recordedLogs(t) {
		for _, ev := range log {
			if len(ev.Invocations) != cap(ev.Invocations) || len(ev.Refs) != cap(ev.Refs) {
				t.Fatalf("%s event %d: invocations len %d cap %d, refs len %d cap %d", name, ev.Seq,
					len(ev.Invocations), cap(ev.Invocations), len(ev.Refs), cap(ev.Refs))
			}
		}
	}
}

// TestScanPushRefsTileLog checks what lets an invocation drop its
// reference count: the Scan&Push ranges [RefOff, RefOff+N) of an event,
// taken in invocation order, tile its Refs exactly, and no other
// primitive claims a reference.
func TestScanPushRefsTileLog(t *testing.T) {
	for name, log := range recordedLogs(t) {
		scans := 0
		for _, ev := range log {
			next := uint32(0)
			for i, inv := range ev.Invocations {
				if inv.Prim() != gc.PrimScanPush {
					if inv.RefOff != 0 {
						t.Fatalf("%s event %d invocation %d: %v with RefOff %d", name, ev.Seq, i, inv.Prim(), inv.RefOff)
					}
					continue
				}
				if inv.RefOff != next {
					t.Fatalf("%s event %d invocation %d: RefOff %d, want %d", name, ev.Seq, i, inv.RefOff, next)
				}
				next += inv.N
				scans++
			}
			if int(next) != len(ev.Refs) {
				t.Fatalf("%s event %d: Scan&Push ranges cover %d of %d refs", name, ev.Seq, next, len(ev.Refs))
			}
		}
		if scans == 0 {
			t.Fatalf("%s: no Scan&Push invocation recorded", name)
		}
	}
}
