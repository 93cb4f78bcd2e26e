package sim

import (
	"errors"
	"testing"
)

// This file pins the simulation kernel's hot-path performance contract:
// per-subsystem benchmarks (run with `go test -bench .`), plus
// allocation budgets (testing.AllocsPerRun) for the paths every memory
// access crosses. The budgets are exact — a regression that starts
// allocating per reservation or per event shows up here before it shows
// up as a 2x sweep slowdown.

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

// BenchmarkEngineSchedulePop is the per-event cost: one push and one pop
// on a warm queue.
func BenchmarkEngineSchedulePop(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		e.Schedule(Time(i%97), fn)
		e.Step()
	}
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

// TestEngineScheduleAllocsSteadyState: once the queue slice has grown to
// its working capacity, Schedule+Step must not allocate — the event heap
// stores events by value and the watchdog diagnostics closure must not
// escape.
func TestEngineScheduleAllocsSteadyState(t *testing.T) {
	for _, armed := range []bool{false, true} {
		e := NewEngine()
		if armed {
			e.SetWatchdog(DefaultWatchdog())
		}
		fn := func() {}
		for i := 0; i < 128; i++ {
			e.Schedule(Time(i%13), fn)
		}
		e.Run()
		allocs := testing.AllocsPerRun(1000, func() {
			e.Schedule(7, fn)
			e.Step()
		})
		if allocs != 0 {
			t.Fatalf("Schedule+Step (watchdog armed=%v) allocates %.1f allocs/op, budget 0", armed, allocs)
		}
	}
}

// TestEngineQueueZeroesPoppedSlots: the value-based event heap must clear
// vacated slots, so a fired event's callback (and anything its closure
// keeps alive) is unreachable the moment it fires — not when the slot
// happens to be overwritten by a later Schedule.
func TestEngineQueueZeroesPoppedSlots(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 33; i++ {
		e.Schedule(Time(97-i), func() {})
	}
	e.Run()
	spare := e.queue[:cap(e.queue)]
	for i, ev := range spare {
		if ev.fn != nil || ev.at != 0 || ev.seq != 0 {
			t.Fatalf("queue slot %d retains a fired event: %+v", i, ev)
		}
	}
}

// TestEngineNoStalePayloadsAcrossReuse interleaves scheduling with
// stepping so popped slots are reused by later events, and requires every
// payload to fire exactly once — a slot-reuse bug double-fires or drops.
func TestEngineNoStalePayloadsAcrossReuse(t *testing.T) {
	e := NewEngine()
	const n = 64
	fired := make([]int, n)
	add := func(id int, at Time) {
		e.At(at, func() { fired[id]++ })
	}
	for i := 0; i < n/2; i++ {
		add(i, Time(100+(i*37)%50))
	}
	for i := 0; i < n/4; i++ {
		e.Step()
	}
	for i := n / 2; i < n; i++ {
		add(i, Time(100+(i*23)%50))
	}
	e.Run()
	for id, c := range fired {
		if c != 1 {
			t.Fatalf("event %d fired %d times, want exactly once", id, c)
		}
	}
}

// TestWatchdogAbortQueueConsistent: a watchdog abort mid-run must leave
// the queue consistent — recovering and draining it fires each surviving
// event exactly once, with no stale payloads from the aborted growth.
func TestWatchdogAbortQueueConsistent(t *testing.T) {
	e := NewEngine()
	e.SetWatchdog(Watchdog{QueueLimit: 40})
	forks, stopped := 0, false
	var fork func()
	fork = func() {
		forks++
		if stopped {
			return
		}
		e.Schedule(Nanosecond, fork)
		e.Schedule(Nanosecond, fork)
	}
	err := abortOf(t, func() {
		e.Schedule(0, fork)
		e.Run()
	})
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	// Disarm, stop the forking, and drain: every event queued at abort
	// time must fire exactly once — a slot-reuse bug double-fires or
	// drops, and either shows up as a count mismatch.
	e.SetWatchdog(Watchdog{})
	stopped = true
	want := e.QueueDepth()
	if want == 0 {
		t.Fatal("nothing left queued after abort")
	}
	before := forks
	drained := 0
	for e.Pending() {
		e.Step()
		drained++
	}
	if drained != want || forks-before != want {
		t.Fatalf("drained %d events firing %d callbacks, want exactly %d of each",
			drained, forks-before, want)
	}
}
