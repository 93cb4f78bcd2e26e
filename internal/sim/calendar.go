package sim

import "sync/atomic"

// Calendar tracks the occupancy of a serial resource (a DRAM data bus, an
// HMC link lane, a cache port) in fixed-width time buckets, so that
// reservations made out of call order can still backfill idle gaps. A
// single high-water cursor ("freeAt") would falsely serialize independent
// requesters: once one client reserves far in the future, earlier idle
// time becomes unusable. The calendar keeps per-bucket occupancy instead;
// a reservation starting at time t consumes capacity from t's bucket
// onward, spilling into later buckets as needed.
//
// Within a bucket, sub-bucket ordering is approximated: a reservation is
// placed at max(requested time, bucket start + occupancy already placed in
// the bucket). This bounds the error by the bucket width while preserving
// total capacity exactly.
//
// Storage is a sliding ring over the 4096 most recently reached buckets
// (the window): bucket b lives at ring[b%calRingSize] while b is inside
// [base, base+calRingSize). Simulated time only moves forward, so almost
// every reservation lands near the newest bucket; when one advances past
// the window, the buckets that slide out are cleared and only their summed
// occupancy survives (in belowMax).
//
// A saturated resource leaves long runs of full buckets behind its booked
// frontier, and requests keep arriving inside them. Each ring bucket
// therefore carries a skip distance (see skip) that lets Reserve jump a
// full run in amortized O(log W) hops for the W-bucket window, not one
// step per bucket. A full bucket stays full until it slides out, so the
// jump is exact: a reservation lands where stepping through each full
// bucket would put it. The calendar promises:
//
//   - Inside the window, Reserve and BusyWithin are exact: identical to a
//     calendar that keeps every bucket forever.
//   - A reservation behind the window (its start bucket already slid out)
//     is clamped to the window base and counted in ClampedReservations. It
//     still ends no earlier than at+dur, and Busy still counts it in full.
//     The window spans 4096 buckets (~400 µs at the 100 ns DRAM width).
//     The deepest lag measured over the full experiment suite is 3500 of
//     4096 buckets, on a 50 ns HMC link lane in `ablations`, so no
//     simulation reaches this path, with about 1.2x headroom; tests
//     assert the count stays zero.
//   - BusyWithin for a horizon behind the window returns min(horizon,
//     occupancy retired below the window): at most the horizon, and
//     monotone in it.
type Calendar struct {
	width Time
	ring  *[calRingSize]bucket
	// skip[b&calRingMask] is bucket b's skip distance, read only while the
	// bucket is full (highWater == width): d > 0 then means buckets
	// [b, b+d) are all full. A bucket that fills gets 1; a search rewrites
	// the full buckets it crossed to point straight at the first bucket
	// with room (path compression). A slide clears only the occupancy: a
	// cleared bucket has room, so its stale distance is never read, and
	// filling it sets a fresh one.
	skip *[calRingSize]uint16
	// base is the lowest bucket index the ring currently represents. It
	// only grows; bucket b is at ring[b&calRingMask] iff
	// base <= b < base+calRingSize.
	base int64

	// Incremental horizon accounting, so BusyWithin(h) for h at or beyond
	// the latest occupied bucket — the overwhelmingly common query, since
	// metrics collect at the platform clock — is O(1): maxBucket is the
	// highest bucket holding occupancy (-1 when empty; always inside the
	// window), maxBusy its busy time, and belowMax the summed busy of every
	// bucket before it, retired ones included. Invariant after each
	// Reserve: belowMax + maxBusy == Busy.
	maxBucket int64
	maxBusy   Time
	belowMax  Time

	// Busy accumulates total reserved time (utilization accounting). It
	// counts whole reservations at reservation time; for time-windowed
	// accounting use BusyWithin, which attributes a reservation to the
	// buckets it actually occupies.
	Busy Time
}

// bucket is one time slice's occupancy state.
type bucket struct {
	// highWater is the placement cursor from the bucket start: the next
	// reservation in this bucket starts no earlier than start+highWater.
	// It may exceed the busy time when a reservation started mid-bucket
	// (the skipped idle gap is unusable but not busy).
	highWater Time
	// busy is the reserved (occupied) time within the bucket, <= width.
	busy Time
}

// Ring geometry: the window is 4096 buckets.
const (
	calRingBits = 12
	calRingSize = int64(1) << calRingBits
	calRingMask = calRingSize - 1
)

// clampedReservations counts reservations behind their calendar's window,
// process-wide.
var clampedReservations atomic.Int64

// ClampedReservations returns how many reservations, over every calendar in
// the process, started behind their calendar's window and were clamped to
// its base. Simulations never do this; a nonzero count means results were
// approximated.
func ClampedReservations() int64 { return clampedReservations.Load() }

// NewCalendar creates a calendar with the given bucket width. Widths
// around the resource's typical service time × 20 balance precision and
// memory (e.g. 100 ns for a DRAM channel).
func NewCalendar(width Time) *Calendar {
	if width == 0 {
		panic("sim: zero calendar width")
	}
	return &Calendar{
		width:     width,
		ring:      new([calRingSize]bucket),
		skip:      new([calRingSize]uint16),
		maxBucket: -1,
	}
}

// slideTo advances the ring window so bucket b fits, clearing the buckets
// that slide out (one ring range, so at most two clears).
func (c *Calendar) slideTo(b int64) {
	newBase := b - calRingSize + 1
	steps := min(newBase-c.base, calRingSize)
	lo := c.base & calRingMask
	if hi := lo + steps; hi <= calRingSize {
		clear(c.ring[lo:hi])
	} else {
		clear(c.ring[lo:])
		clear(c.ring[:hi-calRingSize])
	}
	c.base = newBase
}

// firstFree returns the first bucket after the full bucket b that has
// room. It follows skip distances there, sliding the window if the search
// runs past it, then points every full bucket it crossed straight at the
// answer. A slide mid-search drops a prefix of the path; the buckets
// [max(b, base), r) left are all full, and their skip distances lead to r,
// so re-walking from the window base compresses the path suffix still in
// the window.
func (c *Calendar) firstFree(b int64) int64 {
	r := b
	for c.ring[r&calRingMask].highWater == c.width {
		r += int64(c.skip[r&calRingMask])
		if r >= c.base+calRingSize {
			c.slideTo(r)
		}
	}
	for i := max(b, c.base); i < r; {
		s := &c.skip[i&calRingMask]
		next := i + int64(*s)
		*s = uint16(r - i)
		i = next
	}
	return r
}

// clampToWindow is the cold path for a reservation whose start bucket has
// slid out of the window: it restarts at the window base.
func (c *Calendar) clampToWindow() (Time, int64) {
	clampedReservations.Add(1)
	return Time(c.base) * c.width, c.base
}

// Reserve books dur of occupancy starting no earlier than at, returning
// the completion time of the reservation.
//
// Cost: O(buckets the reservation occupies) plus one skip search per run
// of full buckets it meets. Path compression keeps a search at amortized
// O(log W) hops over the W = 4096-bucket window in the worst case, and at
// a few hops on the simulator's pattern of requests arriving behind a
// saturated frontier (BenchmarkCalendarReserveBacklog is flat in the lag).
func (c *Calendar) Reserve(at Time, dur Time) Time {
	if dur == 0 {
		return at
	}
	c.Busy += dur
	b := int64(at / c.width)
	if b < c.base {
		at, b = c.clampToWindow()
	}
	remaining := dur
	for {
		if b >= c.base+calRingSize {
			c.slideTo(b)
		}
		bk := &c.ring[b&calRingMask]
		if bk.highWater == c.width {
			// Full: jump to the first bucket with room. at now lies before
			// that bucket, so placement starts at its high-water mark, as
			// stepping over each full bucket would.
			b = c.firstFree(b)
			bk = &c.ring[b&calRingMask]
		}
		bucketStart := Time(b) * c.width
		// Position within the bucket: after existing occupancy, and not
		// before the requested time for the first chunk. An idle gap
		// before at stays unused; the bucket has room and at lies before
		// its end, so take is positive.
		pos := max(bucketStart+bk.highWater, at)
		take := min(remaining, bucketStart+c.width-pos)
		bk.highWater = (pos + take) - bucketStart
		bk.busy += take
		if bk.highWater == c.width {
			c.skip[b&calRingMask] = 1
		}
		// Maintain the incremental horizon accounting. Chunks of one
		// reservation arrive in increasing bucket order, and any bucket
		// above maxBucket holds no occupancy yet.
		switch {
		case b > c.maxBucket:
			c.belowMax += c.maxBusy
			c.maxBucket = b
			c.maxBusy = take
		case b == c.maxBucket:
			c.maxBusy += take
		default:
			c.belowMax += take
		}
		remaining -= take
		if remaining == 0 {
			return pos + take
		}
		at = pos + take
		b++
	}
}

// BusyWithin returns the reserved time that falls inside [0, horizon),
// computed from per-bucket occupancy. Unlike the raw Busy total, a
// reservation spilling past the horizon contributes only its in-horizon
// portion, so BusyWithin(h) <= h always holds.
//
// Horizons at or beyond the last occupied bucket — every end-of-run
// utilization query — are answered in O(1) from the incremental
// accounting. Earlier horizons inside the window take the total and
// subtract the ring buckets above the horizon; horizons behind the window
// get min(horizon, occupancy retired below the window).
func (c *Calendar) BusyWithin(horizon Time) Time {
	if horizon == 0 || c.maxBucket < 0 {
		return 0
	}
	lastBucket := int64((horizon - 1) / c.width)
	t := c.belowMax + c.maxBusy
	switch {
	case lastBucket > c.maxBucket:
		// Every occupied bucket is fully inside the horizon.
	case lastBucket >= c.base:
		// Drop the buckets above the horizon, then cap the straddling
		// bucket at its in-horizon width: occupancy within a bucket is not
		// positioned (error bounded by one bucket width).
		for b := lastBucket + 1; b <= c.maxBucket; b++ {
			t -= c.ring[b&calRingMask].busy
		}
		in := horizon - Time(lastBucket)*c.width
		if busy := c.ring[lastBucket&calRingMask].busy; busy > in {
			t -= busy - in
		}
	default:
		// Behind the window only the retired buckets' sum is left.
		for b := c.base; b <= c.maxBucket; b++ {
			t -= c.ring[b&calRingMask].busy
		}
	}
	return min(t, horizon)
}

// Utilization returns the fraction of [0, horizon) reserved, always in
// [0, 1]. It is computed from bucket occupancy within the horizon, not the
// raw Busy total: a reservation that spills past the measurement horizon
// (common at end-of-run) contributes only its in-horizon portion, where
// the old Busy/horizon ratio could exceed 1.
func (c *Calendar) Utilization(horizon Time) float64 {
	if horizon == 0 {
		return 0
	}
	return float64(c.BusyWithin(horizon)) / float64(horizon)
}
