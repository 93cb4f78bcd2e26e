package sim

import (
	"fmt"
	"testing"
)

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

// BenchmarkCalendarReserveBacklog is a saturated resource: every request
// arrives a fixed lag behind the booked frontier, so all buckets between
// its start and the frontier are full. A per-bucket walk costs O(lag) per
// reservation; the skip search keeps ns/op flat across lags.
func BenchmarkCalendarReserveBacklog(b *testing.B) {
	for _, lag := range []int64{16, 256, 2048} {
		b.Run(fmt.Sprintf("lag=%d", lag), func(b *testing.B) {
			c, back := backloggedCalendar(lag)
			end := back
			for i := 0; i < b.N; i++ {
				end = c.Reserve(end-back, 30*Nanosecond)
			}
			sinkTime = end
		})
	}
}

// backloggedCalendar returns a calendar of 100 ns buckets booked solid
// for lag buckets from time 0, and the lag as a time.
func backloggedCalendar(lag int64) (*Calendar, Time) {
	const width = 100 * Nanosecond
	c := NewCalendar(width)
	back := Time(lag) * width
	c.Reserve(0, back)
	return c, back
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

// TestCalendarReserveAllocsBacklog: reservations behind a saturated
// frontier, which search and compress skip distances, must not allocate
// either.
func TestCalendarReserveAllocsBacklog(t *testing.T) {
	c, back := backloggedCalendar(256)
	end := back
	allocs := testing.AllocsPerRun(2000, func() {
		end = c.Reserve(end-back, 30*Nanosecond)
	})
	if allocs != 0 {
		t.Fatalf("Calendar.Reserve behind a backlog allocates %.1f allocs/op, budget 0", allocs)
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
