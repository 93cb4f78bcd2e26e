package charonsim

import "testing"

// TestRunAllDeterministicAcrossParallelism is the regression gate for all
// concurrency work in the experiment harness: the full RunAll suite —
// every experiment ID — must produce byte-identical Report.Text at
// parallelism 1 (forced serial) and parallelism 8. The suite runs over
// one workload to keep the gate fast; the six-workload comparison runs in
// BenchmarkSuiteSerialVsParallel (which b.Fatal's on divergence too).
//
// Under -race the gate shrinks to a representative experiment subset (the
// detector slows simulation ~10x); the concurrent machinery it exercises
// is identical.
func TestRunAllDeterministicAcrossParallelism(t *testing.T) {
	workloads := []string{"BS"}

	if raceEnabled {
		for _, id := range []string{"fig12", "table1", "table2", "table3", "table4"} {
			serial, err := Run(id, Config{Workloads: workloads, Parallelism: -1})
			if err != nil {
				t.Fatalf("%s serial: %v", id, err)
			}
			par, err := Run(id, Config{Workloads: workloads, Parallelism: 8})
			if err != nil {
				t.Fatalf("%s parallel: %v", id, err)
			}
			if serial.Text != par.Text {
				t.Errorf("%s: Report.Text differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
					id, serial.Text, par.Text)
			}
		}
		return
	}

	serial, err := RunAll(Config{Workloads: workloads, Parallelism: -1})
	if err != nil {
		t.Fatalf("serial RunAll: %v", err)
	}
	par, err := RunAll(Config{Workloads: workloads, Parallelism: 8})
	if err != nil {
		t.Fatalf("parallel RunAll: %v", err)
	}
	if len(serial) != len(par) || len(serial) != len(Experiments()) {
		t.Fatalf("report counts: serial %d, parallel %d, experiments %d",
			len(serial), len(par), len(Experiments()))
	}
	for i := range serial {
		if serial[i].ID != par[i].ID {
			t.Fatalf("report %d: ID order differs (%s vs %s)", i, serial[i].ID, par[i].ID)
		}
		if serial[i].Text != par[i].Text {
			t.Errorf("%s: Report.Text differs between parallelism 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s",
				serial[i].ID, serial[i].Text, par[i].Text)
		}
		if serial[i].Text == "" {
			t.Errorf("%s: empty report", serial[i].ID)
		}
	}
}
