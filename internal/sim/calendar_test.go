package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCalendarSimpleReservation(t *testing.T) {
	c := NewCalendar(100)
	if end := c.Reserve(0, 10); end != 10 {
		t.Fatalf("first reservation ends at %d", end)
	}
	if end := c.Reserve(0, 10); end != 20 {
		t.Fatalf("second reservation ends at %d", end)
	}
	if c.Busy != 20 {
		t.Fatalf("busy %d", c.Busy)
	}
}

func TestCalendarBackfillsGaps(t *testing.T) {
	// The defining behaviour vs a high-water cursor: a reservation far in
	// the future must not block an earlier one.
	c := NewCalendar(100)
	late := c.Reserve(1000, 50)
	if late != 1050 {
		t.Fatalf("late reservation ends at %d", late)
	}
	early := c.Reserve(0, 50)
	if early > 100 {
		t.Fatalf("early reservation pushed to %d despite idle bucket", early)
	}
}

func TestCalendarSpillsAcrossBuckets(t *testing.T) {
	c := NewCalendar(100)
	end := c.Reserve(0, 350) // 3.5 buckets
	if end < 350 {
		t.Fatalf("spilling reservation ended at %d", end)
	}
	// The next reservation starts after the spill.
	if nxt := c.Reserve(0, 10); nxt <= end {
		t.Fatalf("overlap: %d <= %d", nxt, end)
	}
}

func TestCalendarZeroDuration(t *testing.T) {
	c := NewCalendar(100)
	if end := c.Reserve(42, 0); end != 42 {
		t.Fatalf("zero reservation moved time to %d", end)
	}
}

func TestCalendarZeroWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewCalendar(0)
}

func TestCalendarNeverEndsBeforeStartPlusDur(t *testing.T) {
	// Property: a reservation's end is always >= at+dur (no time travel),
	// and total Busy equals the sum of durations (capacity conservation).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCalendar(Time(1 + rng.Intn(200)))
		var total Time
		for i := 0; i < 200; i++ {
			at := Time(rng.Intn(5000))
			dur := Time(rng.Intn(300))
			end := c.Reserve(at, dur)
			if dur > 0 && end < at+dur {
				return false
			}
			total += dur
		}
		return c.Busy == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarThroughputBound(t *testing.T) {
	// Saturating a calendar from time 0 yields end ≈ total work: the
	// resource cannot serve more than one unit of work per unit time.
	c := NewCalendar(100)
	var end Time
	const n, each = 500, 7
	for i := 0; i < n; i++ {
		end = c.Reserve(0, each)
	}
	if end < n*each {
		t.Fatalf("served %d of work by %d: capacity violated", n*each, end)
	}
	if end > n*each+100 {
		t.Fatalf("saturated calendar left gaps: end %d", end)
	}
}

func TestCalendarUtilization(t *testing.T) {
	c := NewCalendar(100)
	c.Reserve(0, 500)
	if u := c.Utilization(1000); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %v", u)
	}
	if c.Utilization(0) != 0 {
		t.Fatal("zero horizon")
	}
}

func TestCalendarUtilizationClampedAtHorizon(t *testing.T) {
	// Regression: Busy accrues the full reservation duration even when it
	// spills past the measurement horizon, so the old Busy/horizon ratio
	// exceeded 1.0 near end-of-run. Utilization must be computed from
	// bucket occupancy within the horizon instead.
	c := NewCalendar(100)
	c.Reserve(0, 500) // occupies [0, 500): five full buckets
	if c.Busy != 500 {
		t.Fatalf("Busy = %d", c.Busy)
	}
	// Horizon at 100: only one bucket's worth of the reservation is inside.
	if u := c.Utilization(100); u != 1.0 {
		t.Fatalf("utilization(100) = %v, want exactly 1", u)
	}
	// The pre-fix behaviour returned Busy/horizon = 5.0 here.
	for _, h := range []Time{1, 50, 100, 250, 499, 500, 501, 1000} {
		if u := c.Utilization(h); u < 0 || u > 1 {
			t.Fatalf("utilization(%d) = %v out of [0,1]", h, u)
		}
	}
}

func TestCalendarReserveAcrossHorizonBoundary(t *testing.T) {
	// A reservation straddling the horizon contributes only its in-horizon
	// portion.
	c := NewCalendar(100)
	end := c.Reserve(950, 500) // occupies [950, 1450)
	if end != 1450 {
		t.Fatalf("end %d", end)
	}
	if got := c.BusyWithin(1000); got != 50 {
		t.Fatalf("BusyWithin(1000) = %d, want 50", got)
	}
	if u := c.Utilization(1000); u != 0.05 {
		t.Fatalf("utilization %v, want 0.05", u)
	}
	// Past the reservation's end the whole duration is visible again.
	if got := c.BusyWithin(2000); got != 500 {
		t.Fatalf("BusyWithin(2000) = %d, want 500", got)
	}
}

func TestCalendarBusyWithinNeverExceedsHorizon(t *testing.T) {
	// Property: BusyWithin(h) <= h and is monotonic in h, for arbitrary
	// reservation patterns (including ones spilling far past the horizon).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := NewCalendar(Time(1 + rng.Intn(200)))
		for i := 0; i < 100; i++ {
			c.Reserve(Time(rng.Intn(3000)), Time(rng.Intn(500)))
		}
		var prev Time
		for _, h := range []Time{1, 10, 100, 500, 1000, 2500, 5000, 100000} {
			got := c.BusyWithin(h)
			if got > h || got < prev {
				return false
			}
			if u := c.Utilization(h); u < 0 || u > 1 {
				return false
			}
			prev = got
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCalendarClampsBehindWindow(t *testing.T) {
	// A reservation whose start bucket slid out of the window restarts at
	// the window base, still ends no earlier than at+dur, stays in Busy,
	// and is counted.
	c := NewCalendar(100)
	c.Reserve(0, 50)
	far := Time(calRingSize+10) * 100 // slides the base to bucket 11
	c.Reserve(far, 50)
	before := ClampedReservations()
	end := c.Reserve(0, 30)
	if ClampedReservations() != before+1 {
		t.Fatalf("ClampedReservations %d -> %d, want one more", before, ClampedReservations())
	}
	if base := Time(11) * 100; end != base+30 {
		t.Fatalf("clamped reservation ends at %d, want window base %d + 30", end, base)
	}
	if c.Busy != 130 {
		t.Fatalf("Busy = %d, want 130", c.Busy)
	}
	// Behind the window only the retired sum (the first 50) is left.
	if got := c.BusyWithin(10); got != 10 {
		t.Fatalf("BusyWithin(10) = %d, want min(10, 50)", got)
	}
	if got := c.BusyWithin(1000); got != 50 {
		t.Fatalf("BusyWithin(1000) = %d, want retired 50", got)
	}
	// Inside the window the answer is exact again.
	if got := c.BusyWithin(1200); got != 80 {
		t.Fatalf("BusyWithin(1200) = %d, want 50 + 30", got)
	}
}
