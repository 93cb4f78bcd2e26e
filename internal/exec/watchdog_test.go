package exec

import (
	"context"
	"errors"
	"strings"
	"testing"

	"charonsim/internal/gc"
	"charonsim/internal/sim"
)

// recoverAbort runs fn and returns the structured error it aborted with,
// or nil if it completed.
func recoverAbort(fn func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ab, ok := r.(sim.Aborted)
			if !ok {
				panic(r)
			}
			err = ab.Err
		}
	}()
	fn()
	return nil
}

// TestRunThreadsStallGuard wedges the replay scheduler with a stepper
// that never advances time and never completes — the exact livelock shape
// the watchdog exists for — and asserts the abort is structured: it
// unwraps to ErrNoProgress, and its dump names the stuck thread and
// reports the simulated time that thread is stuck at.
func TestRunThreadsStallGuard(t *testing.T) {
	evs, _ := record(t, 4<<20)
	mon := sim.NewMonitor(sim.Watchdog{StallLimit: 64})
	const start = 7 * sim.Microsecond
	err := recoverAbort(func() {
		runThreads(start, evs[0], 2, mon, func(thread int, inv *gc.Invocation) stepper {
			return stepFunc(func(tm sim.Time) stepResult {
				return stepResult{t: tm} // no advance, never done
			})
		})
	})
	if err == nil {
		t.Fatal("wedged scheduler ran to completion")
	}
	if !errors.Is(err, sim.ErrNoProgress) {
		t.Fatalf("abort %v does not unwrap to sim.ErrNoProgress", err)
	}
	var np *sim.NoProgressError
	if !errors.As(err, &np) {
		t.Fatalf("abort %v carries no NoProgressError", err)
	}
	if !strings.Contains(np.Diag.Detail, "thread 0 (executing)") {
		t.Fatalf("diagnostic dump does not name the stuck thread:\n%s", np.Diag.Detail)
	}
	if np.Diag.StallSteps <= 64 {
		t.Fatalf("dump reports %d stalled steps, want > limit", np.Diag.StallSteps)
	}
	if np.Diag.Now != start {
		t.Fatalf("dump reports simulated time %d ps, want the stuck thread's %d ps", np.Diag.Now, start)
	}
}

// TestRunThreadsHealthyReplayNeverStalls pins the property the default-on
// watchdog depends on: a real replay's steppers always either advance
// simulated time or complete, so even a stall budget far below the
// default never fires on a healthy run.
func TestRunThreadsHealthyReplayNeverStalls(t *testing.T) {
	evs, env := record(t, 4<<20)
	wd := sim.Watchdog{StallLimit: 4}
	p, err := NewWithOptions(KindCharon, env, 8, Options{Watchdog: &wd})
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range evs {
		p.Replay(ev, 8)
	}
}

// TestWatchdogAbortThenSchedulerReuse: the reusable replaySched scratch
// (thread heap, per-thread stepper states) must come back clean after a
// watchdog abort tore down a run mid-flight — the next run on the same
// scratch sees every invocation exactly once, with no stale steppers from
// the aborted schedule firing.
func TestWatchdogAbortThenSchedulerReuse(t *testing.T) {
	evs, _ := record(t, 4<<20)
	ev := evs[0]
	mon := sim.NewMonitor(sim.Watchdog{StallLimit: 64})
	var sched replaySched
	err := recoverAbort(func() {
		sched.run(0, ev, 2, mon, func(thread int, inv *gc.Invocation) stepper {
			return stepFunc(func(tm sim.Time) stepResult {
				return stepResult{t: tm} // wedge: no advance, never done
			})
		})
	})
	if !errors.Is(err, sim.ErrNoProgress) {
		t.Fatalf("wedged run aborted with %v, want ErrNoProgress", err)
	}
	seen := 0
	end, _ := sched.run(0, ev, 2, nil, func(thread int, inv *gc.Invocation) stepper {
		return oneShot(func(tm sim.Time) sim.Time {
			seen++
			return tm + 1
		})
	})
	if seen != len(ev.Invocations) {
		t.Fatalf("reused scheduler executed %d of %d invocations", seen, len(ev.Invocations))
	}
	if end == 0 {
		t.Fatal("reused scheduler did not advance time")
	}
}

// TestReplayContextCancellation: a platform built with a cancelled
// context refuses to replay, aborting with an error that unwraps to
// context.Canceled.
func TestReplayContextCancellation(t *testing.T) {
	evs, env := record(t, 4<<20)
	ctx, cancel := context.WithCancel(context.Background())
	p, err := NewWithOptions(KindCharon, env, 8, Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	r := p.Replay(evs[0], 8) // healthy before cancellation
	if r.Duration == 0 {
		t.Fatal("no duration before cancellation")
	}
	cancel()
	aerr := recoverAbort(func() { p.Replay(evs[0], 8) })
	if !errors.Is(aerr, context.Canceled) {
		t.Fatalf("replay after cancel aborted with %v, want context.Canceled", aerr)
	}
}

// TestKindValidate is the table test for the unknown-platform boundary:
// construction must return an error, not panic.
func TestKindValidate(t *testing.T) {
	for _, k := range Kinds() {
		if err := k.Validate(); err != nil {
			t.Fatalf("valid kind %v rejected: %v", k, err)
		}
	}
	for _, k := range []Kind{Kind(-1), KindIdeal + 1, Kind(99)} {
		if err := k.Validate(); err == nil {
			t.Fatalf("invalid kind %d accepted", int(k))
		}
	}
	_, env := record(t, 4<<20)
	if _, err := NewWithOptions(Kind(99), env, 8, Options{}); err == nil {
		t.Fatal("NewWithOptions accepted an unknown kind")
	}
}
