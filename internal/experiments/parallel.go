package experiments

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"

	"charonsim/internal/sim"
)

// ForEachCtx runs fn(i) for every i in [0, n) on at most par concurrent
// workers and returns the lowest-index error (nil if none). Callers write
// results into index i of a preallocated slice, so assembling the final
// (map-shaped, rendered) output in index order afterwards yields output
// byte-identical to a serial loop at any parallelism level.
//
// With par <= 1 the loop runs serially and stops at the first error,
// exactly like the pre-parallel harness; with par > 1 every index runs
// (work after a failing index is wasted, not wrong — simulation units are
// independent and side-effect-free beyond session memoization) and the
// reported error is still the one a serial loop would have hit first.
//
// Every invocation is panic-guarded: a panicking run (a faulted scenario
// tripping an invariant, say) becomes that index's error instead of
// killing the whole sweep.
//
// Cancellation is cooperative; charonsim.RunAll fans the experiment list
// out through it so the whole suite shares one concurrency discipline.
// When ctx is cancelled no new index is dispatched; indexes never
// dispatched report ctx.Err() so the sweep's error reflects the
// interruption, while already-running indexes finish (or hit their own
// watchdog) and keep their results — that is what makes an interrupted
// sweep's completed prefix flushable. A run's wall-clock budget is not the
// pool's business: Config.RunTimeout arms each replay's watchdog, which
// stops the run itself.
func ForEachCtx(ctx context.Context, par, n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if par > n {
		par = n
	}
	run := func(i int) error { return runGuarded(i, fn) }
	if par <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return fmt.Errorf("experiments: run %d not started: %w", i, err)
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	idx := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = run(i)
			}
		}()
	}
dispatch:
	for i := 0; i < n; i++ {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Undispatched indexes never reach a worker, so writing their
			// error slots here is race-free.
			for j := i; j < n; j++ {
				errs[j] = fmt.Errorf("experiments: run %d not started: %w", j, ctx.Err())
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runGuarded invokes fn(i) with panic recovery. A sim.Aborted panic (the
// watchdog's structured escape) keeps its wrapped error, so errors.Is
// against sim.ErrNoProgress or context.Canceled works on the sweep's
// error; any other panic is formatted with its stack.
func runGuarded(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			if ab, ok := r.(sim.Aborted); ok {
				err = fmt.Errorf("experiments: run %d aborted: %w", i, ab.Err)
				return
			}
			err = fmt.Errorf("experiments: run %d panicked: %v\n%s", i, r, debug.Stack())
		}
	}()
	return fn(i)
}

// forEach binds the pool to the session configuration: Parallelism bounds
// the workers and Ctx cancels dispatch.
func (c Config) forEach(n int, fn func(i int) error) error {
	return ForEachCtx(c.Ctx, c.Parallelism, n, fn)
}

// forEachGrid is forEach over an n-by-m index grid, flattened row-major so
// all n*m cells can run concurrently.
func (c Config) forEachGrid(n, m int, fn func(i, j int) error) error {
	return c.forEach(n*m, func(k int) error {
		return fn(k/m, k%m)
	})
}
