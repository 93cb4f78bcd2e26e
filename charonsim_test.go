package charonsim

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"charonsim/internal/exec"
)

func TestExperimentsListed(t *testing.T) {
	ids := Experiments()
	want := []string{"ablations", "collectors", "faults", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17",
		"fig2", "fig4a", "fig4b", "table1", "table2", "table3", "table4", "thermal"}
	if len(ids) != len(want) {
		t.Fatalf("experiments = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids[%d] = %s, want %s", i, ids[i], want[i])
		}
	}
}

func TestRunTable(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table3", "table4"} {
		rep, err := Run(id, Config{})
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if rep.ID != id || rep.Title == "" || rep.Text == "" {
			t.Fatalf("%s: empty report %+v", id, rep)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("fig99", Config{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunFigureQuick(t *testing.T) {
	rep, err := Run("fig12", Config{Workloads: []string{"BS"}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep.Text, "BS") || !strings.Contains(rep.Text, "Charon") {
		t.Fatalf("report missing content:\n%s", rep.Text)
	}
}

func TestWorkloadsAndInfo(t *testing.T) {
	ws := Workloads()
	if len(ws) != 6 || ws[0] != "BS" || ws[5] != "ALS" {
		t.Fatalf("workloads %v", ws)
	}
	info, err := DescribeWorkload("CC")
	if err != nil {
		t.Fatal(err)
	}
	if info.Framework != "GraphChi" || info.PaperHeap != "4GB" || info.MinHeapBytes == 0 {
		t.Fatalf("info %+v", info)
	}
	if _, err := DescribeWorkload("XX"); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// simulate records one workload and replays it once.
func simulate(name string, factor float64, p Platform, threads int) (*GCStats, error) {
	rec, err := Record(name, factor)
	if err != nil {
		return nil, err
	}
	return rec.SimulateGC(p, threads)
}

func TestSimulateGC(t *testing.T) {
	rec, err := Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	base, err := rec.SimulateGC(PlatformDDR4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if base.MinorGCs == 0 || base.MajorGCs == 0 {
		t.Fatalf("GC counts %d/%d", base.MinorGCs, base.MajorGCs)
	}
	if base.TotalPause == 0 || base.MutatorTime == 0 || base.Overhead() <= 0 {
		t.Fatalf("times %+v", base)
	}
	if base.ReclaimedBytes == 0 || base.EnergyJoules <= 0 {
		t.Fatalf("stats %+v", base)
	}
	if base.PrimSeconds["Copy"] <= 0 {
		t.Fatal("no copy attribution")
	}

	ch, err := rec.SimulateGC(PlatformCharon, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ch.TotalPause >= base.TotalPause {
		t.Fatalf("Charon pause %v not below DDR4 %v", ch.TotalPause, base.TotalPause)
	}
	if ch.LocalRatio <= 0 {
		t.Fatal("no locality on Charon")
	}
	if ch.Bandwidth <= base.Bandwidth {
		t.Fatal("Charon bandwidth should exceed DDR4's")
	}
}

// TestRecordingConcurrentReplays: one recording replayed on every
// platform gives the same statistics as a fresh recording per platform,
// records exactly once, and concurrent replays of one recording return
// what serial ones do.
func TestRecordingConcurrentReplays(t *testing.T) {
	rec, err := Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	serial := map[Platform]*GCStats{}
	for _, p := range Platforms() {
		if serial[p], err = rec.SimulateGC(p, 8); err != nil {
			t.Fatal(err)
		}
		fresh, err := simulate("BS", 1.5, p, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(serial[p], fresh) {
			t.Errorf("%s: shared recording %+v, fresh recording %+v", p, serial[p], fresh)
		}
	}
	if n := rec.s.Executions(); n != 1 {
		t.Fatalf("shared recording ran %d times, want 1", n)
	}

	shared, err := Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const callers = 2
	ps := Platforms()
	got := make([]*GCStats, callers*len(ps))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = shared.SimulateGC(ps[i%len(ps)], 8)
		}(i)
	}
	wg.Wait()
	for i, st := range got {
		p := ps[i%len(ps)]
		if errs[i] != nil {
			t.Fatalf("%s: %v", p, errs[i])
		}
		if !reflect.DeepEqual(st, serial[p]) {
			t.Errorf("%s: concurrent %+v, serial %+v", p, st, serial[p])
		}
	}
	if n := shared.s.Executions(); n != 1 {
		t.Fatalf("concurrently replayed recording ran %d times, want 1", n)
	}
}

func TestSimulateGCDefaults(t *testing.T) {
	st, err := simulate("ALS", 0, PlatformIdeal, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.HeapFactor != 1.5 || st.Threads != 8 {
		t.Fatalf("defaults not applied: %+v", st)
	}
}

func TestSimulateGCBadInputs(t *testing.T) {
	if _, err := simulate("BS", 1.5, Platform("nope"), 8); err == nil {
		t.Fatal("bad platform accepted")
	}
	if _, err := simulate("nope", 1.5, PlatformDDR4, 8); err == nil {
		t.Fatal("bad workload accepted")
	}
}

func TestPlatformKindTable(t *testing.T) {
	tests := []struct {
		platform Platform
		want     exec.Kind
		wantErr  bool
	}{
		{PlatformDDR4, exec.KindDDR4, false},
		{PlatformHMC, exec.KindHMC, false},
		{PlatformCharon, exec.KindCharon, false},
		{PlatformCharonDistributed, exec.KindCharonDistributed, false},
		{PlatformCharonCPUSide, exec.KindCharonCPUSide, false},
		{PlatformIdeal, exec.KindIdeal, false},
		{Platform("xpoint"), 0, true},
		{Platform(""), 0, true},
		{Platform("Charon"), 0, true}, // names are case-sensitive
	}
	for _, tc := range tests {
		got, err := tc.platform.kind()
		if tc.wantErr {
			if err == nil {
				t.Errorf("%q: expected an error, got kind %v", tc.platform, got)
			} else if !strings.Contains(err.Error(), string(tc.platform)) {
				t.Errorf("%q: error %v does not name the platform", tc.platform, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.platform, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%q: kind = %v, want %v", tc.platform, got, tc.want)
		}
	}
	// The table above must cover every selectable platform.
	covered := map[Platform]bool{}
	for _, tc := range tests {
		covered[tc.platform] = true
	}
	for _, p := range Platforms() {
		if !covered[p] {
			t.Errorf("platform %q missing from the kind() table", p)
		}
	}
}

func TestPlatformsComplete(t *testing.T) {
	ps := Platforms()
	if len(ps) != 6 {
		t.Fatalf("platforms %v", ps)
	}
	for _, p := range ps {
		if _, err := p.kind(); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
}

func TestArea(t *testing.T) {
	a := Area()
	if a.TotalMM2 < 1.9 || a.TotalMM2 > 2.0 {
		t.Fatalf("area %+v", a)
	}
	if a.LogicLayerShare < 0.004 || a.LogicLayerShare > 0.006 {
		t.Fatalf("share %v", a.LogicLayerShare)
	}
}

// TestSimulateGCEvents: one Recording.SimulateGC call carries the per-collection
// detail, one event per collection, whose pauses add up to the aggregate.
func TestSimulateGCEvents(t *testing.T) {
	st, err := simulate("CC", 1.5, PlatformCharon, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Events) != st.MinorGCs+st.MajorGCs {
		t.Fatalf("%d events for %d minor + %d major collections", len(st.Events), st.MinorGCs, st.MajorGCs)
	}
	var total int64
	sawMajor := false
	for i, ev := range st.Events {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
		if ev.Pause <= 0 {
			t.Fatalf("event %d has no pause", i)
		}
		if ev.Kind == "major" {
			sawMajor = true
		}
		total += int64(ev.Pause)
	}
	if !sawMajor {
		t.Fatal("no major GC in the log")
	}
	diff := total - int64(st.TotalPause)
	if diff < 0 {
		diff = -diff
	}
	// Per-event times truncate to nanoseconds individually.
	if diff > int64(len(st.Events)) {
		t.Fatalf("per-event sum %d != aggregate %d", total, int64(st.TotalPause))
	}
}

// TestHeapFactorWithinAddressLimit checks that Validate refuses a heap
// factor that sizes a selected workload's heap past the GC log's address
// limit, naming the workload and the limit, and accepts the largest
// factors that fit: the limit comes from the log's packing, so a run
// past it would fail an invariant, or exhaust memory, only after its
// heap was built. Validate builds no heap, so no case allocates one.
func TestHeapFactorWithinAddressLimit(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty = valid
	}{
		{"factor 10000, every workload", Config{HeapFactor: 10000}, "address limit"},
		{"factor 10000, BS", Config{HeapFactor: 10000, Workloads: []string{"BS"}}, "workload BS"},
		{"huge finite factor", Config{HeapFactor: 1e300, Workloads: []string{"PR"}}, "address limit"},
		{"150x LR fits (3600 MB)", Config{HeapFactor: 150, Workloads: []string{"LR"}}, ""},
		{"160x LR does not (3840 MB)", Config{HeapFactor: 160, Workloads: []string{"LR"}}, "workload LR"},
		{"160x PR fits (1280 MB)", Config{HeapFactor: 160, Workloads: []string{"PR"}}, ""},
		{"160x, every workload", Config{HeapFactor: 160}, "workload LR"},
	}
	for _, tc := range tests {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) || !strings.Contains(err.Error(), "4096 MB address limit") {
			t.Errorf("%s: error %q does not name %q and the 4096 MB address limit", tc.name, err, tc.wantErr)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	tests := []struct {
		name    string
		cfg     Config
		wantErr string // substring; empty = valid
	}{
		{"zero value", Config{}, ""},
		{"explicit defaults", Config{Threads: 8, HeapFactor: 1.5, Parallelism: 0}, ""},
		{"serial sentinel", Config{Parallelism: -1}, ""},
		{"negative threads", Config{Threads: -1}, "Threads"},
		{"negative factor", Config{HeapFactor: -0.5}, "HeapFactor"},
		{"NaN factor", Config{HeapFactor: math.NaN()}, "HeapFactor"},
		{"Inf factor", Config{HeapFactor: math.Inf(1)}, "HeapFactor"},
		{"parallelism below sentinel", Config{Parallelism: -2}, "Parallelism"},
		{"unknown workload", Config{Workloads: []string{"BS", "nope"}}, "nope"},
		{"known workloads", Config{Workloads: []string{"BS", "CC"}}, ""},
		{"trace without metrics", Config{TracePath: "t.json"}, "MetricsPath"},
		{"trace with metrics", Config{MetricsPath: "m.json", TracePath: "t.json"}, ""},
		{"metrics alone", Config{MetricsPath: "m.csv"}, ""},
		{"trace csv extension", Config{MetricsPath: "m.json", TracePath: "t.csv"}, "JSON only"},
		{"trace csv uppercase", Config{MetricsPath: "m.json", TracePath: "t.CSV"}, "JSON only"},
		{"negative run timeout", Config{RunTimeout: -time.Second}, "RunTimeout"},
		{"run timeout alone", Config{RunTimeout: time.Minute}, ""},
		{"checkpoint with metrics", Config{CheckpointDir: "c", MetricsPath: "m.json"}, ""},
		{"checkpoint with trace", Config{CheckpointDir: "c", MetricsPath: "m.json", TracePath: "t.json"}, "CheckpointDir"},
	}
	for _, tc := range tests {
		err := tc.cfg.Validate()
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		} else if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestRunRejectsInvalidConfig(t *testing.T) {
	if _, err := Run("fig12", Config{Parallelism: -2}); err == nil {
		t.Fatal("Run accepted Parallelism=-2")
	}
	if _, err := RunAll(Config{Workloads: []string{"nope"}}); err == nil {
		t.Fatal("RunAll accepted an unknown workload")
	}
	if _, err := Run("table1", Config{TracePath: "t.json"}); err == nil {
		t.Fatal("Run accepted a trace request without a metrics path")
	}
	if _, err := Record("BS", math.NaN()); err == nil {
		t.Fatal("Record accepted a NaN heap factor")
	}
	if _, err := simulate("BS", 1.5, PlatformDDR4, -3); err == nil {
		t.Fatal("SimulateGC accepted a negative thread count")
	}
	if _, err := Record("BS", -1); err == nil {
		t.Fatal("Record accepted a negative heap factor")
	}
}

func TestRunWritesMetricsAndTrace(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workloads: []string{"BS"},
		MetricsPath: filepath.Join(dir, "metrics.json"),
		TracePath:   filepath.Join(dir, "trace.json")}
	rep, err := Run("fig12", cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Zero-cost invariant: the rendered report is byte-identical with
	// observability on and off.
	plain, err := Run("fig12", Config{Workloads: []string{"BS"}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Text != plain.Text {
		t.Fatal("enabling metrics changed Report.Text")
	}

	raw, err := os.ReadFile(cfg.MetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
		Gauges   map[string]float64 `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("metrics snapshot is not JSON: %v", err)
	}
	for _, want := range []string{"trace/events", "charon/charon/offload_copy", "ddr4/sim/events"} {
		if _, ok := snap.Counters[want]; !ok {
			t.Errorf("snapshot missing counter %s", want)
		}
	}
	for name, v := range snap.Gauges {
		if strings.HasSuffix(name, "util") && (v < 0 || v > 1) {
			t.Errorf("gauge %s = %v outside [0,1]", name, v)
		}
	}

	traw, err := os.ReadFile(cfg.TracePath)
	if err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(traw, &tf); err != nil {
		t.Fatalf("trace is not JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
}

func TestRunWritesMetricsCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "metrics.csv")
	if _, err := Run("fig12", Config{Workloads: []string{"BS"}, MetricsPath: path}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "name,kind,count,sum,min,mean,max" {
		t.Fatalf("bad CSV header %q", lines[0])
	}
	if len(lines) < 10 {
		t.Fatalf("only %d CSV rows", len(lines))
	}
}

func TestRunMetricsPathUnwritable(t *testing.T) {
	cfg := Config{Workloads: []string{"BS"},
		MetricsPath: filepath.Join(t.TempDir(), "no", "such", "dir", "m.json")}
	if _, err := Run("fig12", cfg); err == nil {
		t.Fatal("unwritable metrics path did not error")
	} else if !strings.Contains(err.Error(), "metrics") {
		t.Fatalf("error %v does not name the metrics sink", err)
	}
}
