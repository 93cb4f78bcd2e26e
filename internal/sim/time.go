// Package sim provides the deterministic timing kernel every model in
// this repository shares: simulated time, reservation calendars for
// serial resources (Calendar), bounded in-flight pools (Slots), and the
// progress watchdog (Monitor).
//
// Timing is reservation-based, not event-driven. A component (a DRAM
// bank, an HMC link lane, a Charon unit) computes when a request can
// start from its own state, reserves the resources it occupies, and
// returns the completion time; the replay scheduler in internal/exec
// advances GC threads in global time order, so reservations are made in
// (approximately) time order without an event queue. Time is measured in
// picoseconds so that components with different clock periods (e.g. the
// 0.937 ns DDR4 clock and the 1.6 ns HMC clock from Table 2 of the paper)
// can coexist without rounding drift.
package sim

// Time is a simulated instant or duration in picoseconds.
type Time uint64

// Common duration units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Seconds converts a simulated duration to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts a simulated duration to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }
