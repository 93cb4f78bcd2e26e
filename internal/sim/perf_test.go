package sim

import "testing"

// This file pins the simulation kernel's hot-path performance contract:
// per-subsystem benchmarks (run with `go test -bench .`), plus
// allocation budgets (testing.AllocsPerRun) for the paths every memory
// access crosses. The budgets are exact — a regression that starts
// allocating per reservation or per issued access shows up here before it
// shows up as a 2x sweep slowdown.

var sinkTime Time

// BenchmarkCalendarReserve is the steady-state reservation path: a dense
// forward-moving stream landing in the ring window, sliding it as
// simulated time advances.
func BenchmarkCalendarReserve(b *testing.B) {
	c := NewCalendar(100 * Nanosecond)
	at := Time(0)
	for i := 0; i < b.N; i++ {
		at = c.Reserve(at, 30*Nanosecond)
	}
	sinkTime = at
}

// BenchmarkCalendarBusyWithin queries utilization at a horizon at/beyond
// the busiest bucket — the O(1) incremental-accounting path used by every
// end-of-run metrics collection.
func BenchmarkCalendarBusyWithin(b *testing.B) {
	c := NewCalendar(100 * Nanosecond)
	at := Time(0)
	for i := 0; i < 10000; i++ {
		at = c.Reserve(at, 30*Nanosecond)
	}
	b.ResetTimer()
	var t Time
	for i := 0; i < b.N; i++ {
		t += c.BusyWithin(at + Time(i%128))
	}
	sinkTime = t
}

// TestCalendarReserveAllocsSteadyState: in-window reservations must not
// allocate at all — the ring is preallocated and the incremental busy
// accounting is plain arithmetic.
func TestCalendarReserveAllocsSteadyState(t *testing.T) {
	c := NewCalendar(100)
	at := Time(0)
	allocs := testing.AllocsPerRun(2000, func() {
		at = c.Reserve(at+5, 60)
	})
	if allocs != 0 {
		t.Fatalf("Calendar.Reserve steady state allocates %.1f allocs/op, budget 0", allocs)
	}
}

// TestSlotsAllocsSteadyState: issuing through a slot pool — free slots
// and full-pool replacement alike — must not allocate; NewSlots sizes the
// heap up front.
func TestSlotsAllocsSteadyState(t *testing.T) {
	s := NewSlots(32)
	ready := Time(0)
	allocs := testing.AllocsPerRun(2000, func() {
		ready += 3
		s.Add(s.Start(ready) + Time(ready%97)*10)
	})
	if allocs != 0 {
		t.Fatalf("Slots.Start+Add allocates %.1f allocs/op, budget 0", allocs)
	}
}
