package experiments

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"charonsim/internal/exec"
	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

// TestSessionConcurrentRecord hammers Record/RecordMode from 32 goroutines
// over a handful of keys and asserts single-flight semantics: every key is
// executed exactly once, every caller observes the same *Run, and no
// caller sees a partially built run. Run with -race to let the detector
// guard the session's internals.
func TestSessionConcurrentRecord(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"BS"}})

	var mu sync.Mutex
	execs := map[string]int{}
	s.SetRecordHook(func(key string) {
		mu.Lock()
		execs[key]++
		mu.Unlock()
	})

	type call struct {
		factor float64
		mode   gc.Mode
	}
	// Two factors plus an explicit-mode alias of the first: three call
	// shapes but only two distinct keys (Record(f) == RecordMode(f, ModePS)).
	calls := []call{{1.5, gc.ModePS}, {1.25, gc.ModePS}}

	const goroutines = 32
	runs := make([]*Run, goroutines)
	errs := make([]error, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer done.Done()
			start.Wait() // maximize overlap: all goroutines enter together
			c := calls[g%len(calls)]
			if g%3 == 0 {
				runs[g], errs[g] = s.RecordMode("BS", c.factor, c.mode)
			} else {
				runs[g], errs[g] = s.Record("BS", c.factor)
			}
		}()
	}
	start.Done()
	done.Wait()

	byKey := map[string]*Run{}
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if runs[g] == nil || runs[g].Col == nil || len(runs[g].Col.Log) == 0 {
			t.Fatalf("goroutine %d: incomplete run %+v", g, runs[g])
		}
		key := RecordKey("BS", calls[g%len(calls)].factor, gc.ModePS)
		if prev, ok := byKey[key]; ok && prev != runs[g] {
			t.Fatalf("goroutine %d: got a different *Run for key %s", g, key)
		}
		byKey[key] = runs[g]
	}
	if len(byKey) != len(calls) {
		t.Fatalf("observed %d keys, want %d", len(byKey), len(calls))
	}
	for key, n := range execs {
		if n != 1 {
			t.Fatalf("key %s executed %d times, want exactly 1", key, n)
		}
	}
	if len(execs) != len(calls) {
		t.Fatalf("executed %d keys (%v), want %d", len(execs), execs, len(calls))
	}
	if got := s.Executions(); got != len(calls) {
		t.Fatalf("Executions() = %d, want %d", got, len(calls))
	}
}

// TestSessionConcurrentRecordError: a failing key is also single-flight —
// executed once, with every concurrent caller receiving the cached error.
func TestSessionConcurrentRecordError(t *testing.T) {
	s := NewSession(Config{})
	var mu sync.Mutex
	execs := 0
	s.SetRecordHook(func(string) {
		mu.Lock()
		execs++
		mu.Unlock()
	})

	const goroutines = 16
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		g := g
		go func() {
			defer wg.Done()
			_, errs[g] = s.Record("no-such-workload", 1.5)
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err == nil {
			t.Fatalf("goroutine %d: unknown workload accepted", g)
		}
	}
	if execs != 1 {
		t.Fatalf("failing key executed %d times, want exactly 1", execs)
	}
	// And the error stays cached for later callers.
	if _, err := s.Record("no-such-workload", 1.5); err == nil {
		t.Fatal("cached error lost")
	}
	if execs != 1 {
		t.Fatalf("cache hit re-executed the recording (%d executions)", execs)
	}
}

// replayCounter is a replay hook that counts simulations per runKey.
type replayCounter struct {
	mu sync.Mutex
	n  map[string]int
}

func countReplays(s *Session) *replayCounter {
	c := &replayCounter{n: map[string]int{}}
	s.SetReplayHook(func(key string) {
		c.mu.Lock()
		c.n[key]++
		c.mu.Unlock()
	})
	return c
}

func (c *replayCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.n {
		n += v
	}
	return n
}

// TestSessionReplayOncePerUnit runs every simulating experiment on ALS in
// one session and pins the replay memo: each distinct runKey simulates
// exactly once, however many experiments replay it.
func TestSessionReplayOncePerUnit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole simulating suite")
	}
	s := NewSession(Config{Workloads: []string{"ALS"}, Parallelism: 4})
	c := countReplays(s)
	for _, run := range []func(*Session) error{
		func(s *Session) error { _, err := Fig2(s); return err },
		func(s *Session) error { _, err := Fig4(s, gc.Minor); return err },
		func(s *Session) error { _, err := Fig4(s, gc.Major); return err },
		func(s *Session) error { _, err := Fig12(s); return err },
		func(s *Session) error { _, err := Fig13(s); return err },
		func(s *Session) error { _, err := Fig14(s); return err },
		func(s *Session) error { _, err := Fig15(s); return err },
		func(s *Session) error { _, err := Fig16(s); return err },
		func(s *Session) error { _, err := Fig17(s); return err },
		func(s *Session) error { _, err := Ablations(s); return err },
		func(s *Session) error { _, err := CollectorStudy(s); return err },
		func(s *Session) error { _, err := Thermal(s); return err },
		func(s *Session) error { _, err := FigFaultSweep(s); return err },
	} {
		if err := run(s); err != nil {
			t.Fatal(err)
		}
	}
	for key, n := range c.n {
		if n != 1 {
			t.Errorf("unit %s simulated %d times, want 1", key, n)
		}
	}
	// Fig2's four heap factors, Fig12's HMC/Charon/Ideal, Fig15's
	// 1/2/4/16-thread DDR4 and Charon points plus five distributed ones,
	// Fig16's CPU-side Charon, the collector study's G1 and CMS pairs, the
	// fault sweep's four faulted Charon columns, and the ablations' twelve
	// non-default points (their Table 2 point is Fig12's Charon unit).
	if len(c.n) != 41 {
		t.Fatalf("simulated %d distinct units, want 41", len(c.n))
	}
}

// TestRecordKeyExactFactor: recordings are keyed on the exact heap
// factor, so two factors that size the heap differently record twice.
func TestRecordKeyExactFactor(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"BS"}})
	a, err := s.Record("BS", 1.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Record("BS", 1.25049)
	if err != nil {
		t.Fatal(err)
	}
	if a == b || s.Executions() != 2 {
		t.Fatalf("factors 1.25 and 1.25049 share a recording (%d executions)", s.Executions())
	}
	if a.Env.HeapBytes == b.Env.HeapBytes {
		t.Fatalf("both recordings have a %d B heap; the factors no longer size it differently", a.Env.HeapBytes)
	}
}

// TestAblationDefaultIsFig12Unit: in a faulted session the Table 2
// ablation point is Fig12's Charon unit — a memo hit with the session's
// fault configuration — and every other point replays under that
// configuration too, so the sweep divides faulted by faulted.
func TestAblationDefaultIsFig12Unit(t *testing.T) {
	fc := fault.Config{Rate: 0.01, Seed: 3}
	s := NewSession(Config{Workloads: []string{"ALS"}, Fault: fc})
	c := countReplays(s)
	fig12, err := Fig12(s)
	if err != nil {
		t.Fatal(err)
	}
	before := c.total()
	topo, err := AblateTopology(s)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.total() - before; n != 1 {
		t.Fatalf("topology sweep simulated %d units after Fig12, want 1 (chain)", n)
	}
	for key := range c.n {
		if !strings.Contains(key, faultKey(fc)) {
			t.Fatalf("unit %s replayed without the session's fault config", key)
		}
	}
	want := fig12.Speedup["ALS"][exec.KindCharon]
	if got := topo.Speedup[topo.Default]; math.Abs(got-want) > 1e-9*want {
		t.Fatalf("default ablation point speedup %v, Fig12 Charon speedup %v", got, want)
	}
}

// TestSharedDefaultPointSimulatedOnce: two sweeps that share the Table 2
// point, run concurrently at parallelism 4, simulate it once. Not skipped
// under -short, so the race detector covers the single-flight path
// between sweeps.
func TestSharedDefaultPointSimulatedOnce(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"ALS"}, Parallelism: 4})
	c := countReplays(s)
	r, err := s.Record("ALS", s.Config().Factor)
	if err != nil {
		t.Fatal(err)
	}
	defKey := s.runKey(replayUnit{r: r, kind: exec.KindCharon, threads: s.Config().Threads})
	sweeps := []func(*Session) (*AblationResult, error){AblateMAI, AblateUnits}
	res := make([]*AblationResult, len(sweeps))
	errs := make([]error, len(sweeps))
	var wg sync.WaitGroup
	for i, sweep := range sweeps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[i], errs[i] = sweep(s)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if n := c.n[defKey]; n != 1 {
		t.Fatalf("shared Table 2 point simulated %d times, want 1", n)
	}
	for key, n := range c.n {
		if n != 1 {
			t.Errorf("unit %s simulated %d times, want 1", key, n)
		}
	}
	// Five MAI points and three unit counts share one: seven Charon
	// units, plus the DDR4 baseline.
	if len(c.n) != 8 {
		t.Fatalf("simulated %d distinct units, want 8", len(c.n))
	}
	if a, b := res[0].Speedup[res[0].Default], res[1].Speedup[res[1].Default]; a != b {
		t.Fatalf("the sweeps disagree on the Table 2 point: %v vs %v", a, b)
	}
}

// TestSessionConcurrentReplay: goroutines replaying one key at once, and
// a caller after them, simulate it once and all receive the same result
// slice.
func TestSessionConcurrentReplay(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"ALS"}})
	c := countReplays(s)
	r, err := s.Record("ALS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 16
	outs := make([][]exec.Result, goroutines+1)
	errs := make([]error, goroutines+1)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer done.Done()
			start.Wait()
			outs[g], errs[g] = s.Replay(r, exec.KindCharon, 8)
		}()
	}
	start.Done()
	done.Wait()
	// A later caller hits the memo too.
	outs[goroutines], errs[goroutines] = s.Replay(r, exec.KindCharon, 8)
	for g := range outs {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if len(outs[g]) != len(r.Col.Log) || &outs[g][0] != &outs[0][0] {
			t.Fatalf("goroutine %d got a different result slice", g)
		}
	}
	if n := c.total(); n != 1 {
		t.Fatalf("one key simulated %d times, want 1", n)
	}
}

// TestSessionReplayRepublishesMetrics: a memo hit and a checkpoint hit
// publish exactly the counters a re-simulation would, and a metrics
// session treats a stored unit without a snapshot as a miss.
func TestSessionReplayRepublishesMetrics(t *testing.T) {
	snapshot := func(cfg Config) (string, int) {
		t.Helper()
		cfg.Workloads, cfg.Metrics = []string{"ALS"}, metrics.NewRegistry()
		s := NewSession(cfg)
		c := countReplays(s)
		r, err := s.Record("ALS", 1.5)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if _, err := s.Replay(r, exec.KindCharon, 8); err != nil {
				t.Fatal(err)
			}
		}
		b, err := json.Marshal(cfg.Metrics.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return string(b), c.total()
	}
	// A traced session simulates every call: the reference.
	want, sims := snapshot(Config{Trace: metrics.NewRecorder(0)})
	if sims != 2 {
		t.Fatalf("traced session simulated %d of 2 replays", sims)
	}

	st := newStore(t)
	// An entry written without metrics carries no snapshot.
	plain := NewSession(Config{Workloads: []string{"ALS"}, Checkpoint: st})
	r, err := plain.Record("ALS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Replay(r, exec.KindCharon, 8); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		sims int
	}{
		{"memo hit after a snapshot-less entry", 1},
		{"checkpoint hit", 0},
	} {
		got, sims := snapshot(Config{Checkpoint: st})
		if sims != tc.sims {
			t.Fatalf("%s: simulated %d units, want %d", tc.name, sims, tc.sims)
		}
		if got != want {
			t.Fatalf("%s: metrics differ from re-simulation", tc.name)
		}
	}
}

// switchCtx is a context whose cancellation can be switched off again,
// so one session can see an aborted replay and then a healthy one.
type switchCtx struct {
	context.Context
	cancelled atomic.Bool
}

func (c *switchCtx) Err() error {
	if c.cancelled.Load() {
		return context.Canceled
	}
	return nil
}

// replayRecovered is Replay with the worker pool's panic conversion: a
// sim.Aborted escaping the replay comes back as its error.
func replayRecovered(s *Session, r *Run, kind exec.Kind) (out []exec.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			ab, ok := p.(sim.Aborted)
			if !ok {
				panic(p)
			}
			err = ab.Err
		}
	}()
	return s.Replay(r, kind, 8)
}

// waitParkedIn polls the goroutine dump until some goroutine is blocked
// on a channel receive inside fn.
func waitParkedIn(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, fn) {
				return
			}
		}
	}
	t.Fatalf("no goroutine blocked in %s", fn)
}

// TestSessionAbortedReplayNotMemoized: a replay aborted by its context
// leaves no memo entry, a waiter on the same key gets an error instead of
// blocking, and a later replay of the key with a live context succeeds.
func TestSessionAbortedReplayNotMemoized(t *testing.T) {
	ctx := &switchCtx{Context: context.Background()}
	s := NewSession(Config{Workloads: []string{"ALS"}, Ctx: ctx})
	r, err := s.Record("ALS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	var sims atomic.Int32
	waiter := make(chan error, 1)
	s.SetReplayHook(func(string) {
		if sims.Add(1) != 1 {
			return
		}
		// The owner has claimed the key: start a waiter, wait until it
		// blocks on the flight, then cancel before the owner simulates.
		go func() {
			_, err := replayRecovered(s, r, exec.KindDDR4)
			waiter <- err
		}()
		waitParkedIn(t, "(*Session).replay(")
		ctx.cancelled.Store(true)
	})

	if _, err := replayRecovered(s, r, exec.KindDDR4); !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: got %v, want context.Canceled", err)
	}
	select {
	case err := <-waiter:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("waiter: got %v, want context.Canceled", err)
		}
	case <-time.After(time.Minute):
		t.Fatal("waiter blocked on an aborted replay")
	}
	if n := sims.Load(); n != 1 {
		t.Fatalf("aborted key simulated %d times, want 1 (the waiter should have waited)", n)
	}
	key := s.runKey(replayUnit{r: r, kind: exec.KindDDR4, threads: 8})
	s.mu.Lock()
	_, memoized := s.replays[key]
	s.mu.Unlock()
	if memoized {
		t.Fatal("aborted replay left a memo entry")
	}

	ctx.cancelled.Store(false)
	out, err := s.Replay(r, exec.KindDDR4, 8)
	if err != nil || len(out) != len(r.Col.Log) {
		t.Fatalf("fresh replay after the abort: %d results, err %v", len(out), err)
	}
	if n := sims.Load(); n != 2 {
		t.Fatalf("fresh replay simulated %d units in total, want 2", n)
	}
}

// TestConfigWithDefaults covers zero-value and explicit fields, including
// the Parallelism field the concurrent harness introduced.
func TestConfigWithDefaults(t *testing.T) {
	allSix := []string{"BS", "KM", "LR", "CC", "PR", "ALS"}
	tests := []struct {
		name string
		in   Config
		want Config
	}{
		{
			name: "all zero",
			in:   Config{},
			want: Config{Threads: 8, Factor: 1.5, Workloads: allSix, Parallelism: runtime.GOMAXPROCS(0)},
		},
		{
			name: "explicit fields survive",
			in:   Config{Threads: 4, Factor: 2.0, Workloads: []string{"CC"}, Parallelism: 3},
			want: Config{Threads: 4, Factor: 2.0, Workloads: []string{"CC"}, Parallelism: 3},
		},
		{
			name: "negative parallelism clamps to serial",
			in:   Config{Parallelism: -7},
			want: Config{Threads: 8, Factor: 1.5, Workloads: allSix, Parallelism: 1},
		},
		{
			name: "parallelism one stays one",
			in:   Config{Parallelism: 1},
			want: Config{Threads: 8, Factor: 1.5, Workloads: allSix, Parallelism: 1},
		},
		{
			name: "threads and factor default independently",
			in:   Config{Threads: 16},
			want: Config{Threads: 16, Factor: 1.5, Workloads: allSix, Parallelism: runtime.GOMAXPROCS(0)},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := tc.in.withDefaults()
			if got.Threads != tc.want.Threads || got.Factor != tc.want.Factor ||
				got.Parallelism != tc.want.Parallelism {
				t.Fatalf("withDefaults() = %+v, want %+v", got, tc.want)
			}
			if len(got.Workloads) != len(tc.want.Workloads) {
				t.Fatalf("workloads %v, want %v", got.Workloads, tc.want.Workloads)
			}
			for i := range got.Workloads {
				if got.Workloads[i] != tc.want.Workloads[i] {
					t.Fatalf("workloads %v, want %v", got.Workloads, tc.want.Workloads)
				}
			}
		})
	}
}

// TestForEach covers the worker pool: full index coverage, bounded
// concurrency, serial fallback, and lowest-index error selection.
func TestForEach(t *testing.T) {
	t.Run("covers all indices at any parallelism", func(t *testing.T) {
		for _, par := range []int{-1, 0, 1, 2, 7, 64} {
			var mu sync.Mutex
			seen := map[int]int{}
			err := forEach(par, 20, func(i int) error {
				mu.Lock()
				seen[i]++
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(seen) != 20 {
				t.Fatalf("par=%d: visited %d indices", par, len(seen))
			}
			for i, n := range seen {
				if n != 1 {
					t.Fatalf("par=%d: index %d visited %d times", par, i, n)
				}
			}
		}
	})
	t.Run("empty and negative n", func(t *testing.T) {
		for _, n := range []int{0, -3} {
			if err := forEach(8, n, func(int) error { t.Fatal("called"); return nil }); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Run("lowest-index error wins", func(t *testing.T) {
		e3, e7 := &indexError{3}, &indexError{7}
		for _, par := range []int{1, 4} {
			err := forEach(par, 10, func(i int) error {
				switch i {
				case 3:
					return e3
				case 7:
					return e7
				}
				return nil
			})
			if err != e3 {
				t.Fatalf("par=%d: got %v, want error from index 3", par, err)
			}
		}
	})
	t.Run("serial stops at first error", func(t *testing.T) {
		ran := 0
		err := forEach(1, 10, func(i int) error {
			ran++
			if i == 2 {
				return &indexError{2}
			}
			return nil
		})
		if err == nil || ran != 3 {
			t.Fatalf("err=%v ran=%d, want error after 3 calls", err, ran)
		}
	})
	t.Run("grid is row-major", func(t *testing.T) {
		var mu sync.Mutex
		var cells [][2]int
		if err := forEachGrid(4, 3, 2, func(i, j int) error {
			mu.Lock()
			cells = append(cells, [2]int{i, j})
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(cells) != 6 {
			t.Fatalf("visited %d cells", len(cells))
		}
		seen := map[[2]int]bool{}
		for _, c := range cells {
			if c[0] < 0 || c[0] > 2 || c[1] < 0 || c[1] > 1 || seen[c] {
				t.Fatalf("bad or duplicate cell %v", c)
			}
			seen[c] = true
		}
	})
}

type indexError struct{ i int }

func (e *indexError) Error() string { return "error at index" }

// TestParallelFigureMatchesSerial renders Figure 12 from a serial session
// and a parallelism-8 session and requires byte-identical output — the
// in-package determinism gate (the full-suite one lives in the root
// package). Under -race this doubles as a race test of the fan-out path.
func TestParallelFigureMatchesSerial(t *testing.T) {
	serial := NewSession(Config{Workloads: []string{"BS"}, Parallelism: -1})
	rs, err := Fig12(serial)
	if err != nil {
		t.Fatal(err)
	}
	par := NewSession(Config{Workloads: []string{"BS"}, Parallelism: 8})
	rp, err := Fig12(par)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rp.Render(), rs.Render(); got != want {
		t.Fatalf("parallel render diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", want, got)
	}
	if !strings.Contains(rs.Render(), "BS") {
		t.Fatal("render missing workload row")
	}
}
