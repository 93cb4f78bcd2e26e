package main

import (
	"reflect"
	"testing"
)

// tiny shrinks every workload to a few seconds: two experiments of the
// suite, ALS only and one platform kind per replay workload, and a
// six-operation serve schedule.
func tiny(t *testing.T) map[string]work {
	t.Helper()
	return map[string]work{
		"suite-als": suiteCfg{workload: suiteWorkload, experiments: []string{"fig14", "table3"},
			runs: 1, setups: 1, oracle: mustOracle("suite")}.run,
		"replay-host": replayCfg{workloads: []string{"ALS"}, kinds: hostKinds[:1],
			passes: 1, setups: 1, seed: 1, oracle: mustOracle("replay")}.run,
		"replay-charon": replayCfg{workloads: []string{"ALS"}, kinds: charonKinds[:1],
			passes: 1, setups: 1, seed: 1, oracle: mustOracle("replay")}.run,
		"serve-mix": serveCfg{clients: 1, workers: 2, setups: 1,
			fresh: 2, repeats: 1, admin: 2, sweeps: 1, seed: 1, oracle: mustOracle("serve")}.run,
	}
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	bf, err := readBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind     string
		code     []decl
		declared []benchMetric
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer(), bf.PerLayer}} {
		var declared []decl
		for _, m := range c.declared {
			declared = append(declared, decl{m.Name, m.Unit})
		}
		if !reflect.DeepEqual(c.code, declared) {
			t.Errorf("%s: code declares\n%v\nBENCHMARK.json declares\n%v", c.kind, c.code, declared)
		}
	}
}

// TestTinyRunsEmitDeclaredMetrics runs every workload untraced and traced
// and checks each emits exactly its declared metrics, with their units,
// and that no operation failed.
func TestTinyRunsEmitDeclaredMetrics(t *testing.T) {
	for _, name := range workloadNames {
		w := tiny(t)[name]
		for _, traced := range []bool{false, true} {
			rec, err := measure(w, name, 1, 1, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			want := endToEnd
			if traced {
				want = perLayer()
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, %d declared", name, traced, len(rec.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := rec.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s emitted as %+v (present %v), want unit %s", name, traced, d.Name, m, ok, d.Unit)
				}
			}
			if !rec.Correct || rec.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d of %d (%s)", name, traced, rec.Correct, rec.Failed, rec.Attempted, rec.Oracle)
			}
		}
	}
}

// TestOracleFailsClosed corrupts or removes the expected digest of the
// one output a tiny replay run checks: the run must then be incorrect,
// counting a failure for the corrupted digest and a skipped check for the
// missing one.
func TestOracleFailsClosed(t *testing.T) {
	key := unitKey("ALS", hostKinds[0].kind)
	for _, c := range []struct {
		name       string
		edit       func(oracle)
		wantFailed int
	}{
		{"corrupted", func(o oracle) { o[key] = digest([]byte("not the replay")) }, 1},
		{"missing", func(o oracle) { delete(o, key) }, 0},
	} {
		o := oracle{}
		for k, v := range mustOracle("replay") {
			o[k] = v
		}
		c.edit(o)
		w := replayCfg{workloads: []string{"ALS"}, kinds: hostKinds[:1], passes: 1, setups: 1, seed: 1, oracle: o}.run
		rec, err := measure(w, "replay-host", 1, 1, false, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if rec.Correct || rec.Failed != c.wantFailed || rec.Attempted != 1 {
			t.Errorf("%s digest: correct=%v failed=%d attempted=%d (%s), want incorrect with %d failed of 1",
				c.name, rec.Correct, rec.Failed, rec.Attempted, rec.Oracle, c.wantFailed)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %v, want 5.5", m)
	}
}

func TestJudge(t *testing.T) {
	wall := benchMetric{Name: "wall_s", Better: "lower", Bound: 0.10}
	steady := []float64{10, 10.1, 9.9, 10.05, 9.95}
	for _, c := range []struct {
		name     string
		old, new []float64
		want     string
	}{
		{"same", steady, steady, "unchanged"},
		{"slower past the bound", steady, []float64{12, 12.1, 11.9, 12.05, 11.95}, "worse"},
		{"faster every pair", steady, []float64{9, 9.1, 8.9, 9.05, 8.95}, "better"},
		{"too noisy", steady, []float64{8, 12, 10, 7, 13}, "unresolved"},
	} {
		if got := judge(wall, c.old, c.new); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
	counter := benchMetric{Name: "cpu.ops", Better: "lower"}
	if got := judge(counter, []float64{5, 5}, []float64{5, 6}); got != "differs" {
		t.Errorf("model counter that moved: judge = %s, want differs", got)
	}
}
