package charonsim

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the committed report digests from a full run instead of
// comparing against them:
//
//	go test -run TestRunAllDeterministicAcrossParallelism -update .
var update = flag.Bool("update", false, "rewrite testdata/runall_bs.json")

// checkDigests pins the simulated report bytes: each report's SHA-256
// must match testdata/runall_bs.json, so a change that moves any number
// on BS fails here even when every figure-shape band still holds. The
// -race run checks the subset it renders.
func checkDigests(t *testing.T, reports []*Report) {
	t.Helper()
	got := map[string]string{}
	for _, r := range reports {
		sum := sha256.Sum256([]byte(r.Text))
		got[r.ID] = hex.EncodeToString(sum[:])
	}
	path := filepath.Join("testdata", "runall_bs.json")
	if *update {
		if raceEnabled {
			t.Fatal("-update rewrites every experiment's digest: run it without -race")
		}
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing digest file (regenerate with -update): %v", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !raceEnabled && len(want) != len(got) {
		t.Errorf("%s pins %d experiments, the run rendered %d", path, len(want), len(got))
	}
	for _, r := range reports {
		if sum := got[r.ID]; want[r.ID] != sum {
			t.Errorf("%s: report SHA-256 %s, %s pins %q (re-run with -update if the change is intentional)", r.ID, sum, path, want[r.ID])
		}
	}
}

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
		var reports []*Report
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
			reports = append(reports, serial)
		}
		checkDigests(t, reports)
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
	checkDigests(t, serial)
}
