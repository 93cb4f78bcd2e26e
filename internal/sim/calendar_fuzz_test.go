package sim

import (
	"math/rand"
	"testing"
)

// driveBoth replays one deterministic operation sequence on the ring
// Calendar and the map-based reference, failing on the first divergence in
// Reserve results, Busy totals, BusyWithin, or Utilization.
//
// The ring is exact inside its window, and the reference keeps every
// bucket forever, so the two must agree on every reservation that starts
// inside the window and every horizon inside it. A reservation behind the
// window (case 1) is clamped to the window base instead: it must end no
// earlier than at+dur, keep Busy conserved and bump ClampedReservations,
// and the reference then books it at the clamped start so the rest of the
// sequence stays comparable. A horizon behind the window must give
// min(h, occupancy retired below the window).
//
// A burst (case 2) books a run of reservations at one time behind the
// booked frontier, so later ones search across full buckets. The ring's
// skip invariant is checked every 50 operations and at the end.
func driveBoth(t *testing.T, seed int64, width Time, nops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ring := NewCalendar(width)
	ref := newReferenceCalendar(width)
	checkBusyWithin := func(op int, h Time) {
		t.Helper()
		got := ring.BusyWithin(h)
		if h == 0 || int64((h-1)/width) >= ring.base {
			if want := ref.BusyWithin(h); got != want {
				t.Fatalf("op %d: BusyWithin(%d) = %d, reference %d", op, h, got, want)
			}
			if gu, wu := ring.Utilization(h), ref.Utilization(h); gu != wu {
				t.Fatalf("op %d: Utilization(%d) = %v, reference %v", op, h, gu, wu)
			}
			return
		}
		retired := ref.BusyWithin(Time(ring.base) * width)
		if want := min(h, retired); got != want {
			t.Fatalf("op %d: BusyWithin(%d) behind the window = %d, want min(h, retired %d) = %d",
				op, h, got, retired, want)
		}
	}
	// Mix near-window, far-future, behind-the-window and burst
	// reservations: the cursor random-walks forward so the ring both slides
	// and takes stragglers below its base.
	var cursor, burstAt Time
	burst := 0
	for i := 0; i < nops; i++ {
		var at Time
		switch op := rng.Intn(9); {
		case burst > 0: // the rest of a burst
			burst--
			at = burstAt
		case op == 0: // far jump forward (forces ring slides)
			cursor += Time(rng.Intn(int(width) * 6000))
			at = cursor
		case op == 1: // anywhere up to the cursor, possibly behind the window
			at = Time(rng.Intn(int(cursor) + 1))
		case op == 2: // burst at one at, up to 256 buckets behind the cursor
			burst = rng.Intn(64)
			burstAt = cursor - min(cursor, Time(rng.Intn(int(width)*256)))
			at = burstAt
		default: // near the cursor
			at = cursor + Time(rng.Intn(int(width)*20))
		}
		dur := Time(rng.Intn(int(width) * 4))
		refAt := at
		// A zero-duration reservation books nothing and returns at as is.
		behind := dur > 0 && int64(at/width) < ring.base
		if behind {
			refAt = Time(ring.base) * width
		}
		clamped := ClampedReservations()
		gotEnd, wantEnd := ring.Reserve(at, dur), ref.Reserve(refAt, dur)
		if behind {
			if gotEnd < at+dur {
				t.Fatalf("op %d: clamped Reserve(%d, %d) = %d ends before at+dur", i, at, dur, gotEnd)
			}
			if ClampedReservations() <= clamped {
				t.Fatalf("op %d: Reserve(%d, %d) behind the window not counted", i, at, dur)
			}
		}
		if gotEnd != wantEnd {
			t.Fatalf("op %d: Reserve(%d, %d) = %d, reference Reserve(%d, %d) = %d",
				i, at, dur, gotEnd, refAt, dur, wantEnd)
		}
		if ring.Busy != ref.Busy {
			t.Fatalf("op %d: Busy = %d, reference %d", i, ring.Busy, ref.Busy)
		}
		if gotEnd > cursor {
			cursor = gotEnd
		}
		if i%7 == 0 {
			checkBusyWithin(i, Time(rng.Intn(int(cursor)+int(width)*10+1)))
		}
		if i%50 == 0 {
			checkSkipLinks(t, ring)
		}
	}
	// Terminal sweep: horizons below, at, and beyond the busiest bucket.
	for _, h := range []Time{0, 1, width, cursor / 2, cursor, cursor + width, cursor * 2} {
		checkBusyWithin(nops, h)
	}
	checkSkipLinks(t, ring)
}

// checkSkipLinks asserts the ring's skip invariant: every full bucket b
// has a skip distance d > 0, and every window bucket in [b, b+d) is full
// (d may reach one past the window end, which a search slides to). The
// distance of a bucket with room is never read, so it is not checked.
func checkSkipLinks(t *testing.T, c *Calendar) {
	t.Helper()
	end := c.base + calRingSize
	// free is the first bucket with room after b, or end if none.
	free := end
	for b := end - 1; b >= c.base; b-- {
		if c.ring[b&calRingMask].highWater < c.width {
			free = b
			continue
		}
		switch d := int64(c.skip[b&calRingMask]); {
		case d == 0:
			t.Fatalf("full bucket %d has skip distance 0", b)
		case b+d > free:
			t.Fatalf("bucket %d: skip distance %d crosses bucket %d, which has room or is past the window end", b, d, free)
		}
	}
}

// TestCalendarRingMatchesReference pins the equivalence on fixed seeds so
// the property is exercised on every `go test` run, not only under fuzzing.
func TestCalendarRingMatchesReference(t *testing.T) {
	clamped := ClampedReservations()
	for seed := int64(0); seed < 25; seed++ {
		for _, width := range []Time{1, 7, 100, 100000} {
			driveBoth(t, seed, width, 400)
		}
	}
	if ClampedReservations() == clamped {
		t.Fatal("no sequence reserved behind the window: the clamp path went untested")
	}
}

// TestCalendarRingSaturatedWindow books more back-to-back work than the
// window holds, each request at the window's earliest time (t=0 until the
// window first slides), so every search crosses the full run from the base
// to the booked frontier. Once the frontier bucket is the window's last,
// the next search runs past the window end and slides it mid-walk. Work
// must pack with no gaps and nothing may be clamped.
func TestCalendarRingSaturatedWindow(t *testing.T) {
	const width, each = 100, 25 // requests tile buckets exactly
	c := NewCalendar(width)
	clamped := ClampedReservations()
	var total Time
	slidMidWalk := 0
	for i := 0; total < 3*Time(calRingSize)*width; i++ {
		base := c.base
		startFull := c.ring[base&calRingMask].highWater == width
		end := c.Reserve(Time(base)*width, each)
		total += each
		if end != total {
			t.Fatalf("request %d ends at %d, want total work %d", i, end, total)
		}
		// The start bucket is in the window and no request spills, so a
		// slide can only come from the skip search.
		if startFull && c.base > base {
			slidMidWalk++
		}
		if i%1000 == 0 {
			checkSkipLinks(t, c)
		}
	}
	checkSkipLinks(t, c)
	if got := c.BusyWithin(total); got != total {
		t.Fatalf("BusyWithin(%d) = %d: the saturated calendar left gaps", total, got)
	}
	if ClampedReservations() != clamped {
		t.Fatalf("ClampedReservations %d -> %d: a request was clamped", clamped, ClampedReservations())
	}
	if slidMidWalk == 0 {
		t.Fatal("no search slid the window mid-walk")
	}
}

// FuzzCalendarRingEquivalence drives the ring Calendar and the retained
// map-based reference with identical random Reserve/BusyWithin/Utilization
// sequences (behind-window reservations clamped, see driveBoth); any
// divergence is a bug in the ring. Wired into `make fuzz` and, as a short
// smoke, into `make audit`.
func FuzzCalendarRingEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(100), uint(200))
	f.Add(int64(42), uint64(1), uint(300))
	f.Add(int64(7), uint64(50*1000), uint(150))
	f.Add(int64(3), uint64(10), uint(500)) // long bursts behind the frontier
	f.Fuzz(func(t *testing.T, seed int64, width uint64, nops uint) {
		if width == 0 || width > uint64(Second) {
			t.Skip()
		}
		if nops > 500 {
			nops = 500
		}
		driveBoth(t, seed, Time(width), int(nops))
	})
}
