package sim

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// abortOf runs fn and returns the structured abort it panicked with, or
// nil if it returned normally.
func abortOf(t *testing.T, fn func()) (err error) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		ab, ok := r.(Aborted)
		if !ok {
			t.Fatalf("panic value %v (%T), want sim.Aborted", r, r)
		}
		err = ab.Err
	}()
	fn()
	return nil
}

// spin ticks m until it aborts. A monitor that never trips makes the
// loop spin forever, so each caller arms a check that must fire.
func spin(m *Monitor, advanced bool, diag func() Diagnostics) {
	for {
		m.Tick(advanced, diag)
	}
}

func TestWatchdogStallLimit(t *testing.T) {
	m := NewMonitor(Watchdog{StallLimit: 100})
	// A stepper spinning in place: simulated time never advances.
	diag := func() Diagnostics { return Diagnostics{Now: 42 * Nanosecond} }
	err := abortOf(t, func() { spin(m, false, diag) })
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	var np *NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("err %v is not a *NoProgressError", err)
	}
	if np.Diag.StallSteps <= 100 {
		t.Errorf("diagnostic stall count %d, want > limit 100", np.Diag.StallSteps)
	}
	if np.Diag.Now != 42*Nanosecond || !strings.Contains(np.Error(), "simulated time:     42000 ps") {
		t.Errorf("dump does not carry the supplied simulated time:\n%s", np.Error())
	}
}

func TestWatchdogAllowsAdvancingRuns(t *testing.T) {
	m := NewMonitor(Watchdog{StallLimit: 4})
	// Many steps, runs of up to 4 of them without advance, but time moves
	// on often enough: the stall counter must reset on every advance.
	err := abortOf(t, func() {
		for i := 0; i < 1000; i++ {
			m.Tick(i%5 == 4, nil)
		}
	})
	if err != nil {
		t.Fatalf("healthy run aborted: %v", err)
	}
	if m.Steps() != 1000 {
		t.Fatalf("monitor saw %d steps, want 1000", m.Steps())
	}
}

func TestWatchdogWallClock(t *testing.T) {
	m := NewMonitor(Watchdog{WallClock: 30 * time.Millisecond, CheckEvery: 64})
	// Time advances forever, so only the wall-clock heartbeat can stop it.
	start := time.Now()
	err := abortOf(t, func() { spin(m, true, nil) })
	if !errors.Is(err, ErrNoProgress) {
		t.Fatalf("err = %v, want ErrNoProgress", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("watchdog took %v to fire", el)
	}
}

func TestWatchdogContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	m := NewMonitor(Watchdog{Ctx: ctx, CheckEvery: 64})
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	err := abortOf(t, func() { spin(m, true, nil) })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestNilMonitorIsInert(t *testing.T) {
	var m *Monitor
	m.Tick(false, nil)
	m.CheckCtx()
	if m.Steps() != 0 || m.Stalls() != 0 {
		t.Fatal("nil monitor reported state")
	}
	if NewMonitor(Watchdog{}) != nil {
		t.Fatal("zero watchdog config must yield a nil (disabled) monitor")
	}
}

func TestDefaultWatchdogBoundsAreGenerous(t *testing.T) {
	cfg := DefaultWatchdog()
	if !cfg.Enabled() {
		t.Fatal("default watchdog disabled")
	}
	if cfg.StallLimit < 1<<20 {
		t.Fatalf("default stall bound %d too tight for healthy replays", cfg.StallLimit)
	}
}
