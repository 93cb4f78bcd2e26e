package experiments

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"charonsim/internal/charon"
	"charonsim/internal/checkpoint"
	"charonsim/internal/exec"
	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/hmc"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

func newStore(t *testing.T) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckpointReplayByteIdentity is the resume acceptance criterion at
// the session level: a replay served from the checkpoint store is exactly
// equal — field for field, including float64 values round-tripped through
// JSON — to the live simulation it cached.
func TestCheckpointReplayByteIdentity(t *testing.T) {
	dir := t.TempDir()
	st1, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	live := NewSession(Config{Workloads: []string{"BS"}})
	r, err := live.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	want, err := live.Replay(r, exec.KindCharon, 8)
	if err != nil {
		t.Fatal(err)
	}

	// First checkpointed session: miss, simulate, persist.
	s1 := NewSession(Config{Workloads: []string{"BS"}, Checkpoint: st1})
	r1, err := s1.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	got1, err := s1.Replay(r1, exec.KindCharon, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _, _ := st1.Stats(); hits != 0 || misses != 1 {
		t.Fatalf("first run stats: %d hits, %d misses; want 0, 1", hits, misses)
	}

	// Second session over the same directory: pure cache hit, no record
	// needed for the replay itself.
	st2, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2 := NewSession(Config{Workloads: []string{"BS"}, Checkpoint: st2})
	r2, err := s2.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := s2.Replay(r2, exec.KindCharon, 8)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses, _, _ := st2.Stats(); hits != 1 || misses != 0 {
		t.Fatalf("resume stats: %d hits, %d misses; want 1, 0", hits, misses)
	}

	for i := range want {
		if got1[i] != want[i] {
			t.Fatalf("event %d: checkpointed live run diverged from plain run:\n%+v\nvs\n%+v", i, got1[i], want[i])
		}
		if got2[i] != want[i] {
			t.Fatalf("event %d: cache-served run diverged from plain run:\n%+v\nvs\n%+v", i, got2[i], want[i])
		}
	}
}

// TestCheckpointKeySeparatesConfigurations: different platform kinds,
// thread counts, fault configs, factors, accelerator knobs and cube
// topologies must land on different keys, while an option that resolves
// to the Table 2 platform keys exactly as no option does.
func TestCheckpointKeySeparatesConfigurations(t *testing.T) {
	s := NewSession(Config{})
	r := &Run{Name: "BS", Factor: 1.5}
	charonKey := func(opt exec.Options) string {
		return s.runKey(replayUnit{r: r, kind: exec.KindCharon, threads: 8, opt: opt})
	}
	base := charonKey(exec.Options{})
	seen := map[string]string{base: "base"}
	for label, key := range map[string]string{
		"platform":   s.runKey(replayUnit{r: r, kind: exec.KindDDR4, threads: 8}),
		"threads":    s.runKey(replayUnit{r: r, kind: exec.KindCharon, threads: 4}),
		"fault":      s.runKey(replayUnit{r: r, kind: exec.KindCharon, threads: 8, fc: fault.Config{Rate: 0.01, Seed: 1}}),
		"factor":     s.runKey(replayUnit{r: &Run{Name: "BS", Factor: 2.0}, kind: exec.KindCharon, threads: 8}),
		"factor 7sd": s.runKey(replayUnit{r: &Run{Name: "BS", Factor: 1.5000001}, kind: exec.KindCharon, threads: 8}),
		"workload":   s.runKey(replayUnit{r: &Run{Name: "ALS", Factor: 1.5}, kind: exec.KindCharon, threads: 8}),
		"MAI":        charonKey(charonOpt(func(c *charon.Config) { c.MAIEntries = 16 })),
		"grain":      charonKey(charonOpt(func(c *charon.Config) { c.StreamGrain = 128 })),
		"bmcache":    charonKey(charonOpt(func(c *charon.Config) { c.BitmapCacheBytes = 4 << 10 })),
		"units":      charonKey(charonOpt(func(c *charon.Config) { c.CopySearchPerCube = 4 })),
		"count":      charonKey(charonOpt(func(c *charon.Config) { c.BitmapCountPerCube = 1 })),
		"scanpush":   charonKey(charonOpt(func(c *charon.Config) { c.ScanPushUnits = 4 })),
		"period":     charonKey(charonOpt(func(c *charon.Config) { c.LogicPeriod *= 2 })),
		"dist":       charonKey(charonOpt(func(c *charon.Config) { c.Distributed = true })),
		"cpuside":    charonKey(charonOpt(func(c *charon.Config) { c.CPUSide = true })),
		"chain":      charonKey(exec.Options{Topology: hmc.Chain}),
	} {
		if prev, dup := seen[key]; dup {
			t.Fatalf("key for %q collides with %q: %s", label, prev, key)
		}
		seen[key] = label
	}
	for label, opt := range map[string]exec.Options{
		"Table 2 config":  charonOpt(func(*charon.Config) {}),
		"all-zero config": {CharonConfig: &charon.Config{}},
		"zero MAI":        charonOpt(func(c *charon.Config) { c.MAIEntries = 0 }),
		"zero grain":      charonOpt(func(c *charon.Config) { c.StreamGrain = 0 }),
		"star":            {Topology: hmc.Star},
		// Fields the key does not read: the session supplies them.
		"trace and fault": {Trace: metrics.NewRecorder(0), Fault: &fault.Config{Rate: 0.5}},
	} {
		if key := charonKey(opt); key != base {
			t.Errorf("%s keys %s, want the default key %s", label, key, base)
		}
	}
	// optionsKey lists charon.Config field by field: a new field must join
	// it and the rows above.
	if n := reflect.TypeOf(charon.Config{}).NumField(); n != 9 {
		t.Fatalf("charon.Config has %d fields; optionsKey and this test cover 9", n)
	}
}

// TestDefaultUnitKeyPinned pins a default-option unit's key byte for
// byte: checkpoint stores and charond's units dir are addressed by it, so
// a change here orphans every stored unit.
func TestDefaultUnitKeyPinned(t *testing.T) {
	s := NewSession(Config{Parallelism: 4})
	def := charon.DefaultConfig()
	for _, tc := range []struct {
		u    replayUnit
		want string
	}{
		{replayUnit{r: &Run{Name: "ALS", Factor: 1.5, Mode: gc.ModePS}, kind: exec.KindCharon, threads: 8,
			opt: exec.Options{CharonConfig: &def, Topology: hmc.Star}},
			"replay/v2|wl=ALS|factor=1.5|mode=ParallelScavenge|platform=Charon|threads=8|par=4|" +
				"fault:rate=0,seed=0,crc=0,budget=0,backoff=0,ecc=0,ecclat=0,bank=0,ufail=0,udeg=0,dfac=0,failall=false,deadline=0"},
		{replayUnit{r: &Run{Name: "BS", Factor: 1.25, Mode: gc.ModePS}, kind: exec.KindDDR4, threads: 8,
			fc: fault.Config{Rate: 0.01, Seed: 7}},
			"replay/v2|wl=BS|factor=1.25|mode=ParallelScavenge|platform=DDR4|threads=8|par=4|" +
				"fault:rate=0.01,seed=7,crc=0,budget=0,backoff=0,ecc=0,ecclat=0,bank=0,ufail=0,udeg=0,dfac=0,failall=false,deadline=0"},
	} {
		if got := s.runKey(tc.u); got != tc.want {
			t.Errorf("runKey = %s\nwant     %s", got, tc.want)
		}
	}
}

// TestAblationsResumeFromCheckpoint: every ablation point is a
// checkpointed unit, so a fresh session over a filled store simulates
// nothing and renders the same bytes.
func TestAblationsResumeFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every ablation sweep")
	}
	dir := t.TempDir()
	render := func() (string, int) {
		t.Helper()
		st, err := checkpoint.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSession(Config{Workloads: []string{"ALS"}, Checkpoint: st})
		c := countReplays(s)
		rs, err := Ablations(s)
		if err != nil {
			t.Fatal(err)
		}
		return RenderAblations(rs), c.total()
	}
	first, sims := render()
	// 12 non-default points, the shared Table 2 point and the DDR4 baseline.
	if sims != 14 {
		t.Fatalf("first run simulated %d units, want 14", sims)
	}
	second, sims := render()
	if sims != 0 {
		t.Fatalf("resumed run simulated %d units, want 0", sims)
	}
	if second != first {
		t.Fatalf("resumed render differs:\n--- first ---\n%s\n--- resumed ---\n%s", first, second)
	}
}

// TestCheckpointDisabledWithObservability: a traced session bypasses the
// memo and the checkpoint store, because a trace must show every
// simulated span — each call simulates, and nothing is read or persisted.
func TestCheckpointDisabledWithObservability(t *testing.T) {
	st := newStore(t)
	s := NewSession(Config{Workloads: []string{"BS"}, Checkpoint: st,
		Metrics: metrics.NewRegistry(), Trace: metrics.NewRecorder(0)})
	sims := 0
	s.SetReplayHook(func(string) { sims++ })
	r, err := s.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Replay(r, exec.KindIdeal, 8); err != nil {
			t.Fatal(err)
		}
	}
	if sims != 2 {
		t.Fatalf("traced session simulated %d of 2 replays of one unit", sims)
	}
	if hits, misses, _, _ := st.Stats(); hits != 0 || misses != 0 {
		t.Fatalf("traced session consulted the store: %d hits, %d misses", hits, misses)
	}
	if n, err := st.Len(); err != nil || n != 0 {
		t.Fatalf("traced session persisted %d entries (err %v)", n, err)
	}
}

// TestSessionContextCancellation: a cancelled session context stops the
// sweep with an error satisfying errors.Is(err, context.Canceled) and no
// partial corruption (the error is reported, not panicked).
func TestSessionContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := NewSession(Config{Workloads: []string{"BS"}, Ctx: ctx})
	_, err := Fig2(s)
	if err == nil {
		t.Fatal("cancelled sweep succeeded")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not unwrap to context.Canceled", err)
	}
}

// TestWatchdogAbortConvertsToError: a watchdog abort (sim.Aborted panic)
// escaping a run inside the worker pool must come back as a structured
// error satisfying errors.Is(err, sim.ErrNoProgress) — with the
// diagnostic dump in the message — not as a raw panic with a stack.
func TestWatchdogAbortConvertsToError(t *testing.T) {
	np := &sim.NoProgressError{Reason: "test wedge",
		Diag: sim.Diagnostics{Steps: 42, StallSteps: 42}}
	for _, par := range []int{1, 4} {
		err := forEach(par, 2, func(i int) error {
			if i == 1 {
				panic(sim.Aborted{Err: np})
			}
			return nil
		})
		if err == nil {
			t.Fatalf("par=%d: abort swallowed", par)
		}
		if !errors.Is(err, sim.ErrNoProgress) {
			t.Fatalf("par=%d: error %v does not unwrap to sim.ErrNoProgress", par, err)
		}
		if !strings.Contains(err.Error(), "test wedge") || !strings.Contains(err.Error(), "stalled steps") {
			t.Fatalf("par=%d: error %q lost the diagnostic dump", par, err)
		}
		if strings.Contains(err.Error(), "goroutine") {
			t.Fatalf("par=%d: structured abort was treated as a raw panic: %q", par, err)
		}
	}
}

// TestWatchdogWallClockAbortsReplay: the session's RunTimeout arms the
// engine watchdog heartbeat inside each run, so a wall-clock overrun on a
// real replay aborts with the heartbeat's structured ErrNoProgress error
// rather than hanging.
func TestWatchdogWallClockAbortsReplay(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"BS"}, RunTimeout: time.Nanosecond})
	_, err := Fig2(s)
	if err == nil {
		t.Fatal("1ns run budget let a full sweep through")
	}
	if !errors.Is(err, sim.ErrNoProgress) {
		t.Fatalf("unexpected error shape: %v", err)
	}
}
