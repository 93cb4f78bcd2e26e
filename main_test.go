package charonsim

import (
	"fmt"
	"os"
	"testing"

	"charonsim/internal/sim"
)

// TestMain fails the package if any simulation its tests ran booked a
// calendar reservation behind the window (sim.ClampedReservations), where
// the calendar clamps instead of being exact. Replays must never get there.
func TestMain(m *testing.M) {
	code := m.Run()
	if n := sim.ClampedReservations(); n != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d calendar reservations landed behind the window and were clamped\n", n)
		code = 1
	}
	os.Exit(code)
}
