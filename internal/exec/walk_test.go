package exec

import (
	"context"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/sim"
)

// assertHostPathsAgree replays evs on an HMC host platform, which walks
// each core's L1/L2 ahead of the timing pass, and on a Charon platform
// with every unit failed, which runs the same op streams with the walk
// inline. After every event the durations, every core's cpu.Stats and
// every cache level's Stats must be equal. It returns the Charon platform.
func assertHostPathsAgree(t *testing.T, evs []*gc.Event, env Env, nthreads int) *charonPlatform {
	t.Helper()
	host := New(KindHMC, env, nthreads).(*hostPlatform)
	dead := mustOpt(t, KindCharon, env, nthreads,
		Options{Fault: &fault.Config{FailAllUnits: true, Seed: 1}}).(*charonPlatform)
	for i, ev := range evs {
		h, d := host.Replay(ev, nthreads), dead.Replay(ev, nthreads)
		if h.Duration != d.Duration {
			t.Fatalf("threads=%d event %d (%v): inline walk %v != walked ahead %v",
				nthreads, i, ev.Kind, d.Duration, h.Duration)
		}
		for c, hc := range host.host.Cores {
			dc := dead.host.Cores[c]
			if hc.Stats != dc.Stats {
				t.Fatalf("threads=%d event %d core %d: walked ahead %+v\ninline %+v",
					nthreads, i, c, hc.Stats, dc.Stats)
			}
			for l, hl := range hc.Hierarchy().Levels {
				if dl := dc.Hierarchy().Levels[l]; hl.Stats != dl.Stats {
					t.Fatalf("threads=%d event %d core %d level %d: walked ahead %+v, inline %+v",
						nthreads, i, c, l, hl.Stats, dl.Stats)
				}
			}
		}
	}
	return dead
}

// withChunkEdges returns evs plus one event that stresses the walk's
// chunking: a copy whose unaligned lines span several chunks, and runs of
// invocations that expand to no ops, more of them per thread than one
// chunk holds spans.
func withChunkEdges(evs []*gc.Event, env Env) []*gc.Event {
	edge := *evs[0]
	inv := slices.Clone(edge.Invocations[:1])
	inv = append(inv, gc.Invocation{Prim: gc.PrimCopy, A: env.HeapLo + 8,
		B: env.HeapLo + 8 + 1<<20, N: 8 * chunkOps * 64})
	for i := 0; i < 8*(chunkSpans+40); i++ {
		inv = append(inv, gc.Invocation{Prim: gc.PrimSearch, A: env.HeapLo, N: 0})
	}
	inv = append(inv, edge.Invocations[1:]...)
	inv = append(inv, gc.Invocation{Prim: gc.PrimCopy, A: env.HeapLo, N: 0})
	edge.Invocations = inv
	return append(slices.Clone(evs), &edge)
}

// cancelAfter is a context whose Err turns to context.Canceled after n
// calls, so a replay can be cancelled at a chosen scheduler stride. It
// records how many goroutines were running when it did.
type cancelAfter struct {
	context.Context
	n       atomic.Int64
	running atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		c.running.CompareAndSwap(0, int64(runtime.NumGoroutine()))
		return context.Canceled
	}
	return nil
}

// TestCancelledReplayJoinsProducers cancels a host replay mid-event, while
// its producers are still walking ahead, and asserts that once the abort
// is recovered no producer goroutine is left behind, and that a fresh
// platform still matches the inline path afterwards.
func TestCancelledReplayJoinsProducers(t *testing.T) {
	evs, env := record(t, 4<<20)
	edge := withChunkEdges(evs, env)
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(3) // the event-start check, then two strides of 64 steps
	p := mustOpt(t, KindHMC, env, 8, Options{Ctx: ctx, Watchdog: &sim.Watchdog{CheckEvery: 64}})
	before := runtime.NumGoroutine()
	err := recoverAbort(func() { p.Replay(edge[len(edge)-1], 8) })
	if err != context.Canceled {
		t.Fatalf("replay aborted with %v, want context.Canceled mid-event", err)
	}
	if running := ctx.running.Load(); running <= int64(before) {
		t.Fatalf("%d goroutines at the abort, %d before the replay: no producer was still running", running, before)
	}
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines 1s after the abort, %d before the replay", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
	assertHostPathsAgree(t, edge, env, 8)
}
