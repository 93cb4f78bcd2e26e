package experiments

import (
	"fmt"

	"charonsim/internal/exec"
	"charonsim/internal/fault"
	"charonsim/internal/stats"
)

// FaultSweepRates are the master fault rates the sweep evaluates between
// the healthy and all-units-failed endpoints.
var FaultSweepRates = []float64{0.001, 0.01, 0.05}

// FaultSweepSeed is the fault seed of every faulted column, so the sweep's
// fault patterns are reproducible.
const FaultSweepSeed = 42

// FaultSweepResult is Charon GC time under increasing fault pressure,
// normalized per workload to the host-over-HMC baseline (the path a dead
// accelerator falls back to). Columns run healthy, each FaultSweepRates
// entry, then all-units-failed; a healthy Charon sits well below 1.0 and
// the all-failed column must converge to 1.0 — the graceful-degradation
// acceptance criterion.
type FaultSweepResult struct {
	Workload []string
	Rates    []float64
	// Norm[w] holds len(Rates)+2 columns: healthy, rates..., all-failed.
	Norm map[string][]float64
	// Geomean per column across workloads.
	Geomean []float64
}

// faultSweepColumns returns the per-column fault configurations.
func faultSweepColumns() []fault.Config {
	cols := []fault.Config{{}} // healthy: all knobs zero
	for _, r := range FaultSweepRates {
		cols = append(cols, fault.Config{Rate: r, Seed: FaultSweepSeed})
	}
	cols = append(cols, fault.Config{FailAllUnits: true, Seed: FaultSweepSeed})
	return cols
}

// FigFaultSweep sweeps the fault injector over Charon: GC time vs fault
// rate, healthy through degraded to all-units-failed. The paper's 3.29x
// speedup claim assumes a pristine stack; this experiment answers how much
// of it survives CRC retries, ECC corrections, hard bank faults, and dead
// logic-layer units — and verifies the failover path lands exactly on the
// host baseline.
func FigFaultSweep(s *Session) (*FaultSweepResult, error) {
	cfg := s.Config()
	cols := faultSweepColumns()
	res := &FaultSweepResult{Workload: cfg.Workloads, Rates: FaultSweepRates,
		Norm: map[string][]float64{}}
	rows := make([][]float64, len(cfg.Workloads))
	err := cfg.forEach(len(cfg.Workloads), func(w int) error {
		r, err := s.Record(cfg.Workloads[w], cfg.Factor)
		if err != nil {
			return err
		}
		// Host-over-HMC baseline: the path every degradation converges to.
		baseRes, err := s.Replay(r, exec.KindHMC, cfg.Threads)
		if err != nil {
			return err
		}
		base := Sum(exec.KindHMC, baseRes, cfg.Threads)
		row := make([]float64, len(cols))
		for c := range cols {
			colRes, err := s.replayFault(r, exec.KindCharon, cfg.Threads, cols[c])
			if err != nil {
				return err
			}
			t := Sum(exec.KindCharon, colRes, cfg.Threads)
			row[c] = t.Duration.Seconds() / base.Duration.Seconds()
		}
		rows[w] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	perCol := make([]map[string]float64, len(cols))
	for w, name := range cfg.Workloads {
		res.Norm[name] = rows[w]
		for c, v := range rows[w] {
			if perCol[c] == nil {
				perCol[c] = map[string]float64{}
			}
			perCol[c][name] = v
		}
	}
	for c := range cols {
		gm, err := geomeanOf(cfg.Workloads, perCol[c])
		if err != nil {
			return nil, fmt.Errorf("fault sweep col %d: %w", c, err)
		}
		res.Geomean = append(res.Geomean, gm)
	}
	return res, nil
}

// Render prints the normalized GC-time table.
func (r *FaultSweepResult) Render() string {
	cols := []string{"workload", "healthy"}
	for _, rate := range r.Rates {
		cols = append(cols, fmt.Sprintf("rate=%g", rate))
	}
	cols = append(cols, "all-failed")
	tb := stats.NewTable("Fault sweep: Charon GC time normalized to the host (HMC) baseline", cols...)
	for _, w := range r.Workload {
		tb.AddFloats(w, 3, r.Norm[w]...)
	}
	tb.AddFloats("geomean", 3, r.Geomean...)
	return tb.String()
}
