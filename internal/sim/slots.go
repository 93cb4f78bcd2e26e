package sim

// Slots is a bounded pool of in-flight slots — an MSHR file, a request
// buffer — limiting how many accesses are outstanding at once. An occupied
// slot holds its access's completion time: a new access issues as soon as
// a slot is free, or else when the earliest completion frees one.
//
// Only the multiset of completion times (and its size) is observable, so
// the slots are a binary min-heap: the earliest completion sits at the
// top, and refilling a full pool replaces the top and sifts it down —
// O(log limit) where an earliest-free scan is O(limit), with identical
// timing.
type Slots struct {
	done  []Time // min-heap of completion times
	limit int
}

// NewSlots returns an empty pool of limit slots. limit must be positive.
func NewSlots(limit int) Slots {
	return Slots{done: make([]Time, 0, limit), limit: limit}
}

// Len returns the number of occupied slots.
func (s *Slots) Len() int { return len(s.done) }

// Start returns the earliest time an access ready at `ready` can issue:
// ready itself while a slot is free, else no earlier than the earliest
// completion.
func (s *Slots) Start(ready Time) Time {
	if len(s.done) < s.limit || s.done[0] <= ready {
		return ready
	}
	return s.done[0]
}

// Add occupies a slot until done: a free slot while there is one, else
// the slot of the earliest completion (the one Start waited for).
func (s *Slots) Add(done Time) {
	h := s.done
	if len(h) < s.limit {
		h = append(h, done)
		s.done = h
		i := len(h) - 1
		for i > 0 {
			p := (i - 1) / 2
			if h[p] <= done {
				break
			}
			h[i] = h[p]
			i = p
		}
		h[i] = done
		return
	}
	i, n := 0, len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r] < h[c] {
			c = r
		}
		if h[c] >= done {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = done
}
