package experiments

import "testing"

// TestFaultSweepShape runs the sweep on a two-workload subset and checks
// the degradation curve: healthy Charon beats the host baseline, columns
// never improve dramatically with more faults, and the all-failed column
// converges to the baseline (ratio 1.0) — GC time equals the host path.
func TestFaultSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep replays 2 workloads x 5 fault columns")
	}
	s := NewSession(Config{Workloads: []string{"BS", "KM"}})
	r, err := FigFaultSweep(s)
	if err != nil {
		t.Fatal(err)
	}
	last := len(r.Geomean) - 1
	for _, w := range r.Workload {
		row := r.Norm[w]
		if row[0] >= 1 {
			t.Errorf("%s: healthy Charon ratio %.3f not below the host baseline", w, row[0])
		}
		if row[last] != 1.0 {
			t.Errorf("%s: all-failed ratio %.6f, want exactly 1.0 (host path)", w, row[last])
		}
		for c := 1; c < last; c++ {
			if row[c] < row[0]*0.99 {
				t.Errorf("%s: fault rate %g made GC faster (%.3f < healthy %.3f)",
					w, r.Rates[c-1], row[c], row[0])
			}
		}
	}
	if r.Geomean[last] != 1.0 {
		t.Errorf("all-failed geomean %.6f, want 1.0", r.Geomean[last])
	}
	t.Log("\n" + r.Render())
}

// TestFaultSweepColumns pins the column derivation.
func TestFaultSweepColumns(t *testing.T) {
	cols := faultSweepColumns()
	if len(cols) != len(FaultSweepRates)+2 {
		t.Fatalf("columns = %d, want %d", len(cols), len(FaultSweepRates)+2)
	}
	if cols[0].Enabled() {
		t.Fatal("healthy column must be disabled")
	}
	if cols[1].Seed != FaultSweepSeed {
		t.Fatalf("seed = %d, want %d", cols[1].Seed, FaultSweepSeed)
	}
	if !cols[len(cols)-1].FailAllUnits {
		t.Fatal("last column must fail all units")
	}
}
