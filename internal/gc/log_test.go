package gc_test

import (
	"strings"
	"testing"
	"unsafe"

	"charonsim/internal/gc"
	"charonsim/internal/heap"
	"charonsim/internal/workload"
)

// TestLogRecordSizes pins the in-memory size of the two records a GC log
// is made of: a recording keeps millions of them for as long as it is
// replayed. Invocations carry Prim in the top byte of B and no reference
// count of their own; reference visits carry their flags in the top byte
// of the target.
func TestLogRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(gc.Invocation{}); n != 24 {
		t.Errorf("sizeof(Invocation) = %d, want 24", n)
	}
	if n := unsafe.Sizeof(gc.RefVisit{}); n != 16 {
		t.Errorf("sizeof(RefVisit) = %d, want 16", n)
	}
}

// checkCallRoundTrip fails t unless c packs into an invocation whose
// accessors and fields give c back.
func checkCallRoundTrip(t *testing.T, c gc.Call) {
	t.Helper()
	inv := c.Pack()
	if inv.Prim() != c.Prim || inv.A != c.A || inv.B() != c.B || inv.N != c.N || inv.RefOff != c.RefOff {
		t.Fatalf("Pack(%+v) reads back prim %v A %#x B %#x N %d RefOff %d",
			c, inv.Prim(), uint64(inv.A), uint64(inv.B()), inv.N, inv.RefOff)
	}
}

// checkVisitRoundTrip fails t unless a visit packed from slot, target and
// flags reads them back.
func checkVisitRoundTrip(t *testing.T, slot, target heap.Addr, flags uint8) {
	t.Helper()
	v := gc.NewRefVisit(slot, target, flags)
	if v.Slot != slot || v.Target() != target || v.Flags() != flags {
		t.Fatalf("NewRefVisit(%#x, %#x, %#b) reads back %#x, %#x, %#b",
			uint64(slot), uint64(target), flags, uint64(v.Slot), uint64(v.Target()), v.Flags())
	}
}

// TestLogRecordPackingRoundTrip packs every primitive and all 32
// combinations of the five reference flags with addresses up to the
// highest 8-byte-aligned one below AddrLimit, and reads each back.
func TestLogRecordPackingRoundTrip(t *testing.T) {
	addrs := []heap.Addr{0, 8, 1 << 28, 1<<32 + 8, gc.AddrLimit / 2, gc.AddrLimit - 8}
	for p := gc.Prim(0); p < gc.NumPrims; p++ {
		for _, b := range addrs {
			checkCallRoundTrip(t, gc.Call{Prim: p, A: ^heap.Addr(0) - b, B: b, N: ^uint32(0), RefOff: uint32(b)})
			checkCallRoundTrip(t, gc.Call{Prim: p, B: b})
		}
	}
	const allFlags = gc.RefNull | gc.RefPushed | gc.RefForwardUpdate | gc.RefNewlyMarked | gc.RefCardDirty
	if allFlags != 31 {
		t.Fatalf("the five reference flags are %#b, want the low five bits", allFlags)
	}
	for flags := uint8(0); flags <= allFlags; flags++ {
		for _, a := range addrs {
			checkVisitRoundTrip(t, ^heap.Addr(0)-a, a, flags)
		}
	}
}

// FuzzLogRecordPacking checks the round trip on arbitrary operands: any
// primitive, any A, N and RefOff, any B and target below AddrLimit, any
// slot and any flag byte.
func FuzzLogRecordPacking(f *testing.F) {
	f.Add(uint8(gc.PrimScanPush), uint64(1<<28), uint64(gc.AddrLimit-8), uint32(3), uint32(7), uint64(1<<28+16), uint64(1<<28), uint8(gc.RefPushed))
	f.Fuzz(func(t *testing.T, prim uint8, a, b uint64, n, off uint32, slot, target uint64, flags uint8) {
		checkCallRoundTrip(t, gc.Call{Prim: gc.Prim(prim % uint8(gc.NumPrims)), A: heap.Addr(a),
			B: heap.Addr(b) % gc.AddrLimit, N: n, RefOff: off})
		checkVisitRoundTrip(t, heap.Addr(slot), heap.Addr(target)%gc.AddrLimit, flags)
	})
}

// TestNewRejectsOversizeLayout places a heap so close to AddrLimit that
// its metadata regions reach past it: gc.New must refuse it rather than
// record addresses the log cannot hold.
func TestNewRejectsOversizeLayout(t *testing.T) {
	const heapBytes = 1 << 20
	ok := heap.New(heap.Config{Base: 1 << 28, HeapBytes: heapBytes}, heap.NewTable())
	if lay := gc.New(ok).Lay; lay.RootBase > gc.AddrLimit {
		t.Fatalf("default layout root base %#x past the limit", uint64(lay.RootBase))
	}
	for _, base := range []heap.Addr{gc.AddrLimit - heapBytes, gc.AddrLimit, 1 << 62} {
		h := heap.New(heap.Config{Base: base, HeapBytes: heapBytes}, heap.NewTable())
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "address limit") {
					t.Errorf("heap at %#x: recovered %q, want an address-limit panic", uint64(base), msg)
				}
			}()
			gc.New(h)
		}()
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
