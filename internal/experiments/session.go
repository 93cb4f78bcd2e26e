// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5) from the simulator: each Fig*/Table* function
// runs the required workloads, replays their recorded GC logs on the
// relevant platforms, and returns a typed result that renders the same
// rows/series the paper plots. DESIGN.md §3 maps each experiment to the
// modules it exercises; EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"charonsim/internal/checkpoint"
	"charonsim/internal/energy"
	"charonsim/internal/exec"
	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
	"charonsim/internal/stats"
	"charonsim/internal/workload"
)

// The defaults a zero Threads or Factor selects, here and in every
// command's flags.
const (
	// DefaultThreads is the GC thread count of the paper's 8-core host.
	DefaultThreads = 8
	// DefaultFactor is the heap overprovisioning factor, inside the
	// paper's 1.25-2x policy.
	DefaultFactor = 1.5
)

// Config controls an experiment session.
type Config struct {
	// Threads is the GC thread count (default DefaultThreads).
	Threads int
	// Factor is the heap overprovisioning factor (default DefaultFactor).
	Factor float64
	// Workloads restricts the benchmark set (default: all six).
	Workloads []string
	// Parallelism bounds the number of concurrent record/replay workers
	// the experiment harness fans out (default runtime.GOMAXPROCS(0);
	// values < 0 force serial execution). Every simulation unit — one
	// (workload, factor, mode) recording or one (run, platform, threads)
	// replay — shares no mutable state with any other, so results are
	// byte-identical at every parallelism level.
	Parallelism int
	// Metrics, when non-nil, accumulates every replayed platform's
	// component counters (cores, caches, DRAM banks, HMC links/vaults,
	// Charon units). Registries merge by sum/max, both commutative, so a
	// snapshot's values are identical at every parallelism level.
	Metrics *metrics.Registry
	// Trace, when non-nil, receives event spans (GC pauses, flushes,
	// Charon offloads) from every replay.
	Trace *metrics.Recorder
	// RunTimeout, when positive, bounds each replay unit's wall-clock
	// time: it arms the replay watchdog's wall-clock heartbeat, which
	// stops an overrunning run itself with ErrNoProgress and a diagnostic
	// dump instead of hanging the sweep. Workload recording is not
	// watched. Zero disables the budget.
	RunTimeout time.Duration
	// Ctx, when non-nil, cancels the session's work: the worker pool stops
	// dispatching, and in-flight replays abort at GC-event / scheduler-step
	// granularity with an error satisfying errors.Is(err, ctx.Err()).
	// Nil means context.Background() (never cancelled).
	Ctx context.Context
	// Checkpoint, when non-nil, makes sweeps resumable: every replay unit
	// is keyed by a canonical hash of its fully-resolved configuration,
	// consulted before simulating and persisted (atomically, with a
	// checksum) after completing, together with the unit's metrics
	// snapshot when Metrics is on. Cached units are byte-identical to live
	// ones and re-publish the same counters, so a resumed sweep's report
	// and metrics match an uninterrupted run. Ignored while Trace is on: a
	// trace must show every simulated span (the public Config.Validate
	// rejects the combination).
	Checkpoint *checkpoint.Store
}

// WithDefaults resolves the zero fields: DefaultThreads, DefaultFactor,
// all six workloads, GOMAXPROCS workers (any value below 1 runs serially)
// and a background context. It is the one resolver of these defaults;
// charond's job keys read theirs from it.
func (c Config) WithDefaults() Config {
	if c.Threads == 0 {
		c.Threads = DefaultThreads
	}
	if c.Factor == 0 {
		c.Factor = DefaultFactor
	}
	if len(c.Workloads) == 0 {
		c.Workloads = workload.Names()
	}
	if c.Parallelism == 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.Parallelism < 1 {
		c.Parallelism = 1
	}
	if c.Ctx == nil {
		c.Ctx = context.Background()
	}
	return c
}

// watchdog resolves the session's progress-monitor configuration for one
// run unit: the default stall limit and the per-run wall-clock heartbeat.
// The cancellation context reaches it through exec.Options.Ctx.
func (c Config) watchdog() sim.Watchdog {
	wd := sim.DefaultWatchdog()
	wd.WallClock = c.RunTimeout
	return wd
}

// Run is one recorded workload execution, reduced to what replay reads
// (see newRun).
type Run struct {
	Name    string
	Factor  float64 // heap overprovisioning the recording ran at
	Mode    gc.Mode // collector mode the recording ran under
	Spec    workload.Spec
	Col     gc.EventLog
	Env     exec.Env
	MutTime sim.Time
}

// Session caches recorded workload runs and platform replays so that the
// full experiment suite records each workload once and simulates each
// distinct replay unit once: every figure, the collector study, the fault
// sweep and every ablation point replay through one memoized entry point.
//
// Session is safe for concurrent use: recordings and replays have
// single-flight semantics — concurrent calls for the same recording key
// (RecordKey) or replay key (runKey) execute the unit exactly once while
// the other callers block, off the lock, on the in-flight result. A
// replay simulates on a fresh platform and only reads the (immutable
// after recording) Run, so distinct units proceed concurrently; callers
// share the memoized result slice and must not modify it.
type Session struct {
	cfg Config

	mu      sync.Mutex
	runs    map[string]*inflight // key: name@factor@mode
	replays map[string]*flight   // key: runKey

	// onRecord and onReplay, when set, are invoked (synchronously, off the
	// lock) each time a recording or a replay is actually simulated — the
	// exactly-once counter hooks the concurrency tests use.
	onRecord func(key string)
	onReplay func(key string)
}

// inflight is a single-flight slot: the first caller claims the key and
// executes; done is closed when run/err are final. Errors are cached too —
// recording is deterministic, so a failed key would fail identically on
// retry.
type inflight struct {
	done chan struct{}
	run  *Run
	err  error
}

// flight is a replay's single-flight slot: the first caller claims the
// key and resolves it from the checkpoint store or by simulating; done is
// closed when unit and err are final. Unlike recordings, only a completed
// replay stays memoized: a failed or aborted one is removed before done
// closes, and err tells its waiters why.
type flight struct {
	done chan struct{}
	unit unitResult
	err  error
}

// NewSession creates a session.
func NewSession(cfg Config) *Session {
	return &Session{cfg: cfg.WithDefaults(), runs: map[string]*inflight{},
		replays: map[string]*flight{}}
}

// Config returns the session configuration (defaults applied).
func (s *Session) Config() Config { return s.cfg }

// SetRecordHook registers a callback fired once per actually-executed
// recording (not per cache hit). Must be set before the session is shared
// across goroutines.
func (s *Session) SetRecordHook(fn func(key string)) { s.onRecord = fn }

// SetReplayHook registers a callback fired once per actually-simulated
// replay unit (not per memo or checkpoint hit), with the unit's runKey.
// Must be set before the session is shared across goroutines.
func (s *Session) SetReplayHook(fn func(key string)) { s.onReplay = fn }

// RecordKey is the memoization key for (name, factor, mode). The factor
// is written exactly (shortest round-trip form): any two factors that
// size the heap differently record separately.
func RecordKey(name string, factor float64, mode gc.Mode) string {
	return fmt.Sprintf("%s@%v@%v", name, factor, mode)
}

// Record returns the recorded run for a workload at a heap factor,
// executing it on first use.
func (s *Session) Record(name string, factor float64) (*Run, error) {
	return s.RecordMode(name, factor, gc.ModePS)
}

// RecordMode is Record with collector-mode selection (Table 1's three
// collectors), for the applicability studies.
func (s *Session) RecordMode(name string, factor float64, mode gc.Mode) (*Run, error) {
	key := RecordKey(name, factor, mode)
	s.mu.Lock()
	if f, ok := s.runs[key]; ok {
		s.mu.Unlock()
		<-f.done // block on the in-flight (or completed) execution
		return f.run, f.err
	}
	f := &inflight{done: make(chan struct{})}
	s.runs[key] = f
	s.mu.Unlock()

	if s.onRecord != nil {
		s.onRecord(key)
	}
	f.run, f.err = record(name, factor, mode)
	close(f.done)
	return f.run, f.err
}

// record executes one workload recording. It touches no session state.
func record(name string, factor float64, mode gc.Mode) (*Run, error) {
	w, err := workload.New(name)
	if err != nil {
		return nil, err
	}
	col, err := workload.RunRecordedMode(w, factor, mode)
	if err != nil {
		return nil, fmt.Errorf("%s at %.2fx: %w", name, factor, err)
	}
	return newRun(name, factor, mode, w.Spec(), col), nil
}

// newRun keeps of a finished recording only what replay reads: the event
// log, the replay environment and the mutator time. Nothing in the Run
// reaches col, so the collector and its heap die with the caller's
// reference.
func newRun(name string, factor float64, mode gc.Mode, spec workload.Spec, col *gc.Collector) *Run {
	return &Run{
		Name: name, Factor: factor, Mode: mode, Spec: spec, Col: col.EventLog(),
		Env:     exec.EnvFor(col),
		MutTime: workload.MutatorTime(spec, col.H),
	}
}

// Executions reports how many distinct recordings the session has actually
// executed (completed or in flight) — cache hits do not add to it.
func (s *Session) Executions() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// Replay plays a run's full GC log on a fresh, fault-free platform of the
// given kind, returning per-event results.
func (s *Session) Replay(r *Run, kind exec.Kind, threads int) ([]exec.Result, error) {
	return s.replay(replayUnit{r: r, kind: kind, threads: threads})
}

// replayFault is Replay under fault configuration fc — the fault-sweep
// experiment uses it to replay the same recording at several fault rates
// within one session.
func (s *Session) replayFault(r *Run, kind exec.Kind, threads int, fc fault.Config) ([]exec.Result, error) {
	return s.replay(replayUnit{r: r, kind: kind, threads: threads, fc: fc})
}

// replayUnit is one replay: a recording played on a fresh platform of a
// kind with threads GC threads, under fault configuration fc. Of opt only
// the platform knobs CharonConfig and Topology are read (the ablation
// sweeps vary them); the session supplies trace, context and watchdog.
type replayUnit struct {
	r       *Run
	kind    exec.Kind
	threads int
	fc      fault.Config
	opt     exec.Options
}

// replay is the session's one replay path. A unit is resolved memo
// first, then checkpoint store, then simulation. Concurrent and repeated
// calls for one runKey share a single result, and every call re-publishes
// the unit's metrics snapshot, so the registry ends up exactly as if each
// call had simulated. A checkpoint hit returns the stored results
// byte-identically, and a live result is persisted on completion; store
// I/O failures never fail the replay — a lost Put just means that unit
// re-executes on the next resume. A traced session bypasses memo and
// store: a trace must show every simulated span.
func (s *Session) replay(u replayUnit) ([]exec.Result, error) {
	key := s.runKey(u)
	if s.cfg.Trace != nil {
		res, err := s.simulate(key, u)
		return s.publish(res), err
	}
	s.mu.Lock()
	f, waiting := s.replays[key]
	if !waiting {
		f = &flight{done: make(chan struct{})}
		s.replays[key] = f
	}
	s.mu.Unlock()
	if waiting {
		<-f.done // block on the in-flight (or completed) replay
	} else {
		s.resolve(f, key, u)
	}
	if f.err != nil {
		return nil, f.err
	}
	return s.publish(f.unit), nil
}

// publish merges a unit's metrics snapshot into the session's registry
// and returns its results.
func (s *Session) publish(u unitResult) []exec.Result {
	if u.Metrics != nil {
		s.cfg.Metrics.MergeSnapshot(*u.Metrics)
	}
	return u.Results
}

// resolve fills a claimed flight from the checkpoint store or by
// simulating, then closes it. A unit that does not complete — an error,
// or a panic such as the sim.Aborted a cancelled context or the watchdog
// raises — is removed from the memo before done closes, so its waiters
// return the owner's failure instead of hanging and a later call replays
// the unit afresh. The panic itself still propagates to the owner.
func (s *Session) resolve(f *flight, key string, u replayUnit) {
	completed := false
	defer func() {
		if completed {
			close(f.done)
			return
		}
		p := recover()
		if ab, ok := p.(sim.Aborted); ok {
			f.err = fmt.Errorf("experiments: replay of %s on %s aborted: %w", u.r.Name, u.kind, ab.Err)
		} else if p != nil || f.err == nil {
			f.err = fmt.Errorf("experiments: replay of %s on %s did not complete: %v", u.r.Name, u.kind, p)
		}
		s.mu.Lock()
		delete(s.replays, key)
		s.mu.Unlock()
		close(f.done)
		if p != nil {
			panic(p)
		}
	}()
	st := s.cfg.Checkpoint
	if st != nil {
		if u, ok := getCachedUnit(st, key, s.cfg.Metrics.Enabled()); ok {
			f.unit, completed = u, true
			return
		}
	}
	if f.unit, f.err = s.simulate(key, u); f.err != nil {
		return
	}
	if st != nil {
		putCachedUnit(st, key, f.unit)
	}
	completed = true
}

// simulate replays a run's full GC log on a fresh platform wired with the
// session's trace recorder, cancellation context and replay watchdog.
// When the session collects metrics, the platform's counters come back as
// a snapshot of the unit's own.
func (s *Session) simulate(key string, u replayUnit) (unitResult, error) {
	if s.onReplay != nil {
		s.onReplay(key)
	}
	wd := s.cfg.watchdog()
	opt := exec.Options{CharonConfig: u.opt.CharonConfig, Topology: u.opt.Topology,
		Trace: s.cfg.Trace, Fault: u.fc, Ctx: s.cfg.Ctx, Watchdog: &wd}
	p, err := exec.NewWithOptions(u.kind, u.r.Env, u.threads, opt)
	if err != nil {
		return unitResult{}, err
	}
	res := unitResult{Results: make([]exec.Result, 0, len(u.r.Col.Log))}
	for _, ev := range u.r.Col.Log {
		res.Results = append(res.Results, p.Replay(ev, u.threads))
	}
	if s.cfg.Metrics.Enabled() {
		reg := metrics.NewRegistry()
		if ms, ok := p.(exec.MetricsSource); ok {
			ms.CollectMetrics(reg)
		}
		snap := reg.Snapshot()
		res.Metrics = &snap
	}
	return res, nil
}

// Totals aggregates replay results.
type Totals struct {
	Duration sim.Time
	PrimTime [gc.NumPrims]sim.Time
	Bytes    uint64
	HostBusy sim.Time
	UnitBusy sim.Time
	Local    float64 // weighted local-access ratio
	Energy   energy.Breakdown
}

// Sum aggregates results, weighting the local ratio by event duration and
// computing energy on the given platform kind.
func Sum(kind exec.Kind, results []exec.Result, ncores int) Totals {
	var t Totals
	var localW float64
	for _, r := range results {
		t.Duration += r.Duration
		for p := range r.PrimTime {
			t.PrimTime[p] += r.PrimTime[p]
		}
		t.Bytes += r.Traffic.Bytes()
		t.HostBusy += r.HostBusy
		t.UnitBusy += r.UnitBusy
		localW += r.LocalRatio * r.Duration.Seconds()
		t.Energy.Add(energy.ForGC(kind, r, ncores))
	}
	if t.Duration > 0 {
		t.Local = localW / t.Duration.Seconds()
	}
	return t
}

// BandwidthGBs is the average memory bandwidth over the GC time.
func (t Totals) BandwidthGBs() float64 {
	s := t.Duration.Seconds()
	if s == 0 {
		return 0
	}
	return float64(t.Bytes) / 1e9 / s
}

// replayTotals is the common record+replay+sum path.
func (s *Session) replayTotals(name string, kind exec.Kind, threads int) (Totals, error) {
	r, err := s.Record(name, s.cfg.Factor)
	if err != nil {
		return Totals{}, err
	}
	results, err := s.Replay(r, kind, threads)
	if err != nil {
		return Totals{}, err
	}
	return Sum(kind, results, threads), nil
}

// geomeanOf extracts a geomean across workloads from a per-workload map.
func geomeanOf(names []string, m map[string]float64) (float64, error) {
	var xs []float64
	for _, n := range names {
		if v, ok := m[n]; ok {
			xs = append(xs, v)
		}
	}
	return stats.Geomean(xs)
}
