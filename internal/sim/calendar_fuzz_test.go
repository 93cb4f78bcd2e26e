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
	// Mix near-window, far-future, and behind-the-window reservations: the
	// cursor random-walks forward so the ring both slides and takes
	// stragglers below its base.
	var cursor Time
	for i := 0; i < nops; i++ {
		var at Time
		switch rng.Intn(8) {
		case 0: // far jump forward (forces ring slides)
			cursor += Time(rng.Intn(int(width) * 6000))
			at = cursor
		case 1: // anywhere up to the cursor, possibly behind the window
			at = Time(rng.Intn(int(cursor) + 1))
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
	}
	// Terminal sweep: horizons below, at, and beyond the busiest bucket.
	for _, h := range []Time{0, 1, width, cursor / 2, cursor, cursor + width, cursor * 2} {
		checkBusyWithin(nops, h)
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

// FuzzCalendarRingEquivalence drives the ring Calendar and the retained
// map-based reference with identical random Reserve/BusyWithin/Utilization
// sequences (behind-window reservations clamped, see driveBoth); any
// divergence is a bug in the ring. Wired into `make fuzz` and, as a short
// smoke, into `make audit`.
func FuzzCalendarRingEquivalence(f *testing.F) {
	f.Add(int64(1), uint64(100), uint(200))
	f.Add(int64(42), uint64(1), uint(300))
	f.Add(int64(7), uint64(50*1000), uint(150))
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
