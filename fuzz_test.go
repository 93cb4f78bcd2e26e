package charonsim

import (
	"math"
	"strings"
	"testing"
	"time"
)

// FuzzConfigValidate hammers the public configuration boundary: for any
// input, Validate must return a decision — never panic — and any config
// it accepts must run a cheap experiment cleanly (no panic escaping the
// recovery boundary, no spurious error). This is the executable form of
// the API contract: validation is the only gate between user input and
// the simulation core's invariants.
func FuzzConfigValidate(f *testing.F) {
	// Seeds: the defaults, each boundary the validator guards, and a few
	// deliberately-hostile values.
	f.Add(0, 0.0, "", 0, int64(0), "")
	f.Add(8, 1.5, "BS", 4, int64(0), "")
	f.Add(-1, math.NaN(), "nope", -2, int64(-1), "x.csv")
	f.Add(1, math.Inf(1), "BS,ALS", -1, int64(1e9), "")
	f.Add(2, 1.25, "PR", 2, int64(5e9), "ckpt")
	f.Fuzz(func(t *testing.T, threads int, factor float64, workloads string, parallel int,
		timeoutNs int64, ckptDir string) {
		cfg := Config{
			Threads:     threads,
			HeapFactor:  factor,
			Parallelism: parallel,
			RunTimeout:  time.Duration(timeoutNs),
		}
		if workloads != "" {
			cfg.Workloads = strings.Split(workloads, ",")
		}
		if ckptDir != "" {
			// Keep filesystem effects inside the test sandbox; an empty
			// component exercises the no-checkpoint path.
			cfg.CheckpointDir = t.TempDir()
		}
		err := cfg.Validate() // must decide, never panic
		if err != nil {
			return
		}
		// Accepted configs must execute. table4 touches no simulation but
		// still walks session construction (checkpoint store, watchdog
		// resolution, observability wiring) — the layers a bad accepted
		// config would break.
		if cfg.RunTimeout > 0 && cfg.RunTimeout < time.Second {
			// A microscopic accepted budget would (correctly) time the run
			// out; that's the budget working, not a validation gap.
			cfg.RunTimeout = 0
		}
		if _, rerr := Run("table4", cfg); rerr != nil {
			t.Fatalf("accepted config %+v failed to run: %v", cfg, rerr)
		}
	})
}
