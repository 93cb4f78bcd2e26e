package sim

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// ErrNoProgress is the sentinel all watchdog aborts unwrap to: the
// replay scheduler was still executing steps but simulated time stopped
// advancing, or the wall-clock budget ran out. errors.Is(err, ErrNoProgress) identifies a
// wedged run regardless of which monitor tripped.
var ErrNoProgress = errors.New("sim: no progress")

// Diagnostics is the state dump attached to a watchdog abort, so a wedged
// run reports where it was stuck instead of hanging silently.
type Diagnostics struct {
	// Now is the simulated time at the abort: the clock of the thread
	// the replay scheduler was executing.
	Now Time
	// Steps is the number of scheduler steps executed.
	Steps uint64
	// StallSteps is the consecutive-steps-without-time-advance count that
	// tripped (or preceded) the abort.
	StallSteps uint64
	// Detail carries component-specific state: the exec replay scheduler
	// fills it with per-thread inflight invocation counts.
	Detail string
}

// String renders the dump, one field per line, for logs and CI artifacts.
func (d Diagnostics) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "simulated time:     %d ps\n", uint64(d.Now))
	fmt.Fprintf(&b, "steps executed:     %d\n", d.Steps)
	fmt.Fprintf(&b, "stalled steps:      %d\n", d.StallSteps)
	if d.Detail != "" {
		fmt.Fprintf(&b, "component state:\n%s", d.Detail)
	}
	return b.String()
}

// NoProgressError is a structured watchdog abort: why the run was declared
// wedged plus a diagnostic dump of where it was stuck. It unwraps to
// ErrNoProgress.
type NoProgressError struct {
	Reason string
	Diag   Diagnostics
}

func (e *NoProgressError) Error() string {
	return fmt.Sprintf("sim: no progress: %s\n%s", e.Reason, e.Diag)
}

func (e *NoProgressError) Unwrap() error { return ErrNoProgress }

// Aborted is the panic payload that carries a structured abort (watchdog
// trip, context cancellation) out of synchronous simulation code that has
// no error return path. The experiment harness's panic recovery unwraps it
// back into Err; any other panic value stays an internal invariant
// failure.
type Aborted struct{ Err error }

// Watchdog configures the replay scheduler's progress monitor. The zero
// value disables every check.
type Watchdog struct {
	// StallLimit aborts after this many consecutive steps without
	// simulated-time advance (a stepper spinning in place). 0 disables.
	StallLimit uint64
	// WallClock aborts when a run exceeds this wall-clock budget, measured
	// from Monitor creation (per-run heartbeat: it stops the stuck
	// goroutine itself). 0 disables.
	WallClock time.Duration
	// Ctx, when non-nil, aborts the run as soon as the context is
	// cancelled, checked every CheckEvery steps — this is what gives
	// SIGINT scheduler-step-granularity cancellation of in-flight runs.
	Ctx context.Context
	// CheckEvery is the step interval for the wall-clock and context
	// checks (default 16384; the stall check is per-step and free).
	CheckEvery uint64
}

// Enabled reports whether any check is armed.
func (w Watchdog) Enabled() bool {
	return w.StallLimit > 0 || w.WallClock > 0 || w.Ctx != nil
}

// Default watchdog bounds: far above anything a healthy replay produces
// (every healthy scheduler step advances its thread or completes an
// invocation), so the default-on watchdog never perturbs a sane run and
// still converts a livelock into a structured failure within seconds.
const (
	DefaultStallLimit uint64 = 8 << 20
	defaultCheckEvery uint64 = 1 << 14
)

// DefaultWatchdog returns the default-on monitor configuration.
func DefaultWatchdog() Watchdog {
	return Watchdog{StallLimit: DefaultStallLimit}
}

// Monitor is the runtime state of an armed watchdog. A nil *Monitor is
// valid and disables every check, so hot paths need no branches beyond
// the nil test. Monitors are not goroutine-safe: each platform's replay
// scheduler owns its own.
type Monitor struct {
	cfg      Watchdog
	deadline time.Time // zero when WallClock is unset
	steps    uint64
	stalls   uint64
}

// NewMonitor arms a watchdog, starting the wall-clock budget now. Returns
// nil (disabled) when no check is configured.
func NewMonitor(cfg Watchdog) *Monitor {
	if !cfg.Enabled() {
		return nil
	}
	if cfg.CheckEvery == 0 {
		cfg.CheckEvery = defaultCheckEvery
	}
	m := &Monitor{cfg: cfg}
	if cfg.WallClock > 0 {
		m.deadline = time.Now().Add(cfg.WallClock)
	}
	return m
}

// Steps returns the number of ticks observed.
func (m *Monitor) Steps() uint64 {
	if m == nil {
		return 0
	}
	return m.steps
}

// Stalls returns the current consecutive no-advance count.
func (m *Monitor) Stalls() uint64 {
	if m == nil {
		return 0
	}
	return m.stalls
}

// abort panics with a structured Aborted carrying a NoProgressError.
func (m *Monitor) abort(reason string, diag func() Diagnostics) {
	d := Diagnostics{}
	if diag != nil {
		d = diag()
	}
	d.Steps = m.steps
	d.StallSteps = m.stalls
	panic(Aborted{Err: &NoProgressError{Reason: reason, Diag: d}})
}

// Tick records one step. advanced reports whether simulated time moved
// forward on this step; diag (may be nil) supplies the dump if a check
// trips. Panics sim.Aborted on a violation.
func (m *Monitor) Tick(advanced bool, diag func() Diagnostics) {
	if m == nil {
		return
	}
	m.steps++
	if advanced {
		m.stalls = 0
	} else {
		m.stalls++
		if m.cfg.StallLimit > 0 && m.stalls > m.cfg.StallLimit {
			m.abort(fmt.Sprintf("%d consecutive steps without simulated-time advance (limit %d)",
				m.stalls, m.cfg.StallLimit), diag)
		}
	}
	if m.steps%m.cfg.CheckEvery != 0 {
		return
	}
	if m.cfg.Ctx != nil {
		if err := m.cfg.Ctx.Err(); err != nil {
			panic(Aborted{Err: err})
		}
	}
	if !m.deadline.IsZero() && time.Now().After(m.deadline) {
		m.abort(fmt.Sprintf("run exceeded its %v wall-clock budget", m.cfg.WallClock), diag)
	}
}

// CheckCtx aborts immediately if the monitored context is cancelled,
// regardless of the CheckEvery stride. Call it at natural boundaries
// (e.g. the start of each replayed GC event).
func (m *Monitor) CheckCtx() {
	if m == nil || m.cfg.Ctx == nil {
		return
	}
	if err := m.cfg.Ctx.Err(); err != nil {
		panic(Aborted{Err: err})
	}
}
