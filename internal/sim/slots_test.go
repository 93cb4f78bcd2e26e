package sim

import (
	"math/rand"
	"testing"
)

// referenceSlots is the earliest-free linear scan that Slots replaced
// (the MAI and MSHR code before the heap), kept as the behavioural
// reference: it returns the start time, the completion and whether the
// access stalled for a slot.
type referenceSlots struct {
	done  []Time
	limit int
}

func (s *referenceSlots) reserve(ready Time, complete func(start Time) Time) (start, done Time, stalled bool) {
	if len(s.done) < s.limit {
		done = complete(ready)
		s.done = append(s.done, done)
		return ready, done, false
	}
	idx := 0
	for i := 1; i < len(s.done); i++ {
		if s.done[i] < s.done[idx] {
			idx = i
		}
	}
	start = ready
	if s.done[idx] > start {
		stalled = true
		start = s.done[idx]
	}
	done = complete(start)
	s.done[idx] = done
	return start, done, stalled
}

// TestSlotsMatchReference drives Slots and the linear-scan reference with
// identical random ready and completion streams: start and completion
// times, stall counts and occupancy must agree at every step.
func TestSlotsMatchReference(t *testing.T) {
	for _, limit := range []int{1, 2, 10, 32, 64} {
		for seed := int64(0); seed < 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewSlots(limit)
			ref := referenceSlots{limit: limit}
			var ready Time
			var stalls, refStalls int
			for i := 0; i < 2000; i++ {
				// Bursts of same-time issues, small steps and idle gaps,
				// against latencies from a cache hit to a congested miss
				// (equal completions included).
				switch rng.Intn(4) {
				case 0:
				case 1:
					ready += Time(rng.Intn(2000))
				default:
					ready += Time(rng.Intn(50))
				}
				lat := Time(rng.Intn(4) * 500)
				if rng.Intn(4) == 0 {
					lat = Time(rng.Intn(100000))
				}
				complete := func(start Time) Time { return start + lat }

				start := s.Start(ready)
				if start > ready {
					stalls++
				}
				done := complete(start)
				s.Add(done)
				wantStart, wantDone, stalled := ref.reserve(ready, complete)
				if stalled {
					refStalls++
				}
				if start != wantStart || done != wantDone {
					t.Fatalf("limit %d seed %d op %d: start/done %d/%d, reference %d/%d",
						limit, seed, i, start, done, wantStart, wantDone)
				}
				if stalls != refStalls || s.Len() != len(ref.done) {
					t.Fatalf("limit %d seed %d op %d: stalls %d len %d, reference %d/%d",
						limit, seed, i, stalls, s.Len(), refStalls, len(ref.done))
				}
			}
			if s.Len() != limit {
				t.Fatalf("limit %d seed %d: %d slots occupied after 2000 issues", limit, seed, s.Len())
			}
		}
	}
}
