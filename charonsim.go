// Package charonsim is a self-contained reproduction of "Charon:
// Specialized Near-Memory Processing Architecture for Clearing Dead
// Objects in Memory" (Jang et al., MICRO-52, 2019): a near-memory garbage
// collection accelerator on the logic layer of 3D-stacked DRAM.
//
// The library contains, built from scratch in Go:
//
//   - a generational JVM-like heap with a ParallelScavenge-style collector
//     (minor scavenge + full mark-compact), card table and mark bitmaps;
//   - a reservation-based memory-system simulator: DDR4 channels, an HMC
//     (4 cubes x 32 vaults, serial links, star topology), host OoO cores
//     with caches/MSHRs/prefetcher;
//   - the Charon accelerator: Copy/Search, Bitmap Count and Scan&Push
//     processing units, MAI, accelerator TLB and bitmap cache, with the
//     offload packet protocol of the paper;
//   - synthetic Spark/GraphChi workloads reproducing the paper's object
//     demographics;
//   - an experiment harness regenerating every table and figure of the
//     paper's evaluation.
//
// Quick start:
//
//	report, err := charonsim.Run("fig12", charonsim.Config{})
//	fmt.Println(report.Text)
//
// or simulate one workload on one platform:
//
//	st, err := charonsim.SimulateGC("ALS", 1.5, charonsim.PlatformCharon, 8)
//	fmt.Printf("GC pause total: %v, speedup material: %v\n", st.TotalPause, st.Bandwidth)
package charonsim

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
	"charonsim/internal/energy"
	"charonsim/internal/exec"
	"charonsim/internal/experiments"
	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
	"charonsim/internal/workload"
)

// ErrNoProgress is the replay watchdog's verdict on a wedged simulation:
// a run aborted because simulated time stopped advancing or the per-run
// wall-clock heartbeat expired. Match it with errors.Is on any error
// returned from Run, RunAll or the Simulate functions.
var ErrNoProgress = sim.ErrNoProgress

// ErrInternal marks an internal invariant violation (a panic in the
// simulation core) recovered at the public API boundary and converted to
// an error carrying the run descriptor and stack. Match with errors.Is.
var ErrInternal = errors.New("internal invariant violation")

// Config controls experiment execution.
type Config struct {
	// Threads is the GC thread count (default 8, the paper's host).
	Threads int
	// HeapFactor is heap overprovisioning relative to each workload's
	// minimum heap (default 1.5; the paper uses 1.25-2x).
	HeapFactor float64
	// Workloads restricts the benchmark set (default: all six of Table 3).
	Workloads []string
	// Parallelism bounds how many simulations (workload recordings and
	// platform replays) the harness runs concurrently on the host machine
	// (default runtime.GOMAXPROCS(0); -1 forces serial execution).
	// It changes wall-clock time only: every simulation unit is
	// independent, so Report.Text is byte-identical at any parallelism
	// level. This is host-side concurrency, unrelated to Threads (the
	// number of simulated GC threads).
	Parallelism int
	// MetricsPath, when non-empty, writes a snapshot of every simulated
	// component's counters (cores, caches, DRAM banks, HMC links and
	// vaults, Charon units, conservation totals) after the run: CSV when
	// the path ends in ".csv", indented JSON otherwise. Metric values are
	// byte-identical at every Parallelism setting.
	MetricsPath string
	// TracePath, when non-empty, writes a chrome://tracing-loadable JSON
	// event trace (GC pauses, cache flushes, per-unit Charon offloads,
	// fault spans like "deadline-fallback"). Requires MetricsPath: the
	// trace's companion counters (span totals, drop counts) land in the
	// metrics snapshot. The trace format is JSON only — the path must not
	// carry a ".csv" extension.
	TracePath string
	// FaultRate is the master fault-injection rate in [0, 1): link CRC
	// errors at this per-packet probability, plus derived DRAM ECC, hard
	// bank fault, and Charon-unit failure/degradation rates (see
	// internal/fault for the derivations). Zero (the default) disables
	// injection entirely and keeps every report byte-identical to a
	// fault-free build.
	FaultRate float64
	// FaultSeed selects the deterministic fault pattern; the same seed and
	// Parallelism-independent draw order make faulted reports reproducible.
	// Setting a seed without a nonzero FaultRate (or OffloadDeadline) is a
	// configuration error — there would be no faults to seed.
	FaultSeed int64
	// OffloadDeadline arms the Charon offload watchdog: an offload whose
	// completion exceeds issue+deadline is abandoned and re-executed on the
	// host cores, counted as a degradation event. Zero disables it.
	OffloadDeadline time.Duration
	// RunTimeout, when positive, bounds each replay unit's wall-clock
	// time. It arms the replay watchdog's wall-clock heartbeat inside each
	// run, so a replay that overruns aborts with diagnostics
	// (ErrNoProgress) instead of hanging the whole sweep. Workload
	// recording is not watched. Zero disables the budget.
	RunTimeout time.Duration
	// CheckpointDir, when non-empty, makes sweeps crash-safe and
	// resumable: every completed replay unit is persisted there (atomic
	// temp-file+rename, checksummed) under a key derived from its fully
	// resolved configuration, and consulted before simulating. Re-running
	// an interrupted sweep with the same directory replays cached units
	// byte-identically and executes only the missing ones. Corrupt,
	// truncated or version-mismatched entries are detected and discarded.
	// Every replay unit resumes, ablation points included. The key
	// includes the fault and parallelism knobs, so changing any
	// Config field that could affect results invalidates the cache
	// naturally. With MetricsPath set, each entry also stores the unit's
	// metrics snapshot, so a resumed run writes the same snapshot as an
	// uninterrupted one. Incompatible with TracePath: a trace must show
	// every simulated span, and a cached replay simulates nothing.
	CheckpointDir string
}

func (c Config) toInternal() experiments.Config {
	return experiments.Config{Threads: c.Threads, Factor: c.HeapFactor,
		Workloads: c.Workloads, Parallelism: c.Parallelism,
		Fault:      c.faultConfig(),
		RunTimeout: c.RunTimeout}
}

// faultConfig maps the public fault knobs onto the injector configuration.
func (c Config) faultConfig() fault.Config {
	return fault.Config{Rate: c.FaultRate, Seed: c.FaultSeed,
		OffloadDeadline: sim.Time(c.OffloadDeadline.Nanoseconds()) * sim.Nanosecond}
}

// Validate rejects configurations that withDefaults would otherwise paper
// over: negative thread counts, non-finite or negative heap factors,
// parallelism below the documented -1 serial sentinel, unknown workload
// names, out-of-range fault rates, a fault seed with no fault to apply it
// to, negative deadlines/timeouts, a trace request without a metrics
// snapshot to accompany it, a trace path with a ".csv" extension (the
// trace format is JSON only), and a trace combined with a checkpoint
// directory.
func (c Config) Validate() error {
	if c.Threads < 0 {
		return fmt.Errorf("charonsim: Threads must be >= 0 (0 selects the default), got %d", c.Threads)
	}
	if c.HeapFactor < 0 || math.IsNaN(c.HeapFactor) || math.IsInf(c.HeapFactor, 0) {
		return fmt.Errorf("charonsim: HeapFactor must be a finite value >= 0 (0 selects the default), got %v", c.HeapFactor)
	}
	if c.Parallelism < -1 {
		return fmt.Errorf("charonsim: Parallelism must be >= -1 (-1 = serial, 0 = GOMAXPROCS), got %d", c.Parallelism)
	}
	known := map[string]bool{}
	for _, w := range workload.Names() {
		known[w] = true
	}
	for _, w := range c.Workloads {
		if !known[w] {
			return fmt.Errorf("charonsim: unknown workload %q (have %v)", w, workload.Names())
		}
	}
	if c.TracePath != "" && c.MetricsPath == "" {
		return fmt.Errorf("charonsim: TracePath requires MetricsPath (the trace's summary counters are part of the metrics snapshot)")
	}
	if strings.HasSuffix(strings.ToLower(c.TracePath), ".csv") {
		return fmt.Errorf("charonsim: TracePath %q has a .csv extension but the event trace is JSON only (CSV is a MetricsPath format)", c.TracePath)
	}
	if c.FaultRate < 0 || c.FaultRate >= 1 || math.IsNaN(c.FaultRate) {
		return fmt.Errorf("charonsim: FaultRate must be in [0, 1), got %v", c.FaultRate)
	}
	if c.FaultSeed < 0 {
		return fmt.Errorf("charonsim: FaultSeed must be >= 0, got %d", c.FaultSeed)
	}
	if c.OffloadDeadline < 0 {
		return fmt.Errorf("charonsim: OffloadDeadline must be >= 0 (0 disables the watchdog), got %v", c.OffloadDeadline)
	}
	if c.RunTimeout < 0 {
		return fmt.Errorf("charonsim: RunTimeout must be >= 0 (0 disables the budget), got %v", c.RunTimeout)
	}
	if c.CheckpointDir != "" && c.TracePath != "" {
		return fmt.Errorf("charonsim: CheckpointDir is incompatible with TracePath (a cached replay simulates nothing, so the trace would silently miss its spans)")
	}
	if err := c.faultConfig().Validate(); err != nil {
		// The injector's own checks catch what the public knobs can still
		// misconfigure in combination — notably a seed with nothing to seed.
		return fmt.Errorf("charonsim: %w", err)
	}
	return nil
}

// observability builds the registry/recorder the config asks for (nil
// means disabled; all their methods are nil-safe).
func (c Config) observability() (*metrics.Registry, *metrics.Recorder) {
	var reg *metrics.Registry
	var rec *metrics.Recorder
	if c.MetricsPath != "" {
		reg = metrics.NewRegistry()
	}
	if c.TracePath != "" {
		rec = metrics.NewRecorder(0)
	}
	return reg, rec
}

// sessionFor validates cfg and builds the session plus its observability
// sinks and (when configured) its checkpoint store.
func sessionFor(ctx context.Context, cfg Config) (*experiments.Session, *metrics.Registry, *metrics.Recorder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, nil, err
	}
	reg, rec := cfg.observability()
	icfg := cfg.toInternal()
	icfg.Ctx = ctx
	icfg.Metrics = reg
	icfg.Trace = rec
	if cfg.CheckpointDir != "" {
		st, err := checkpoint.Open(cfg.CheckpointDir)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("charonsim: checkpoint: %w", err)
		}
		icfg.Checkpoint = st
	}
	return experiments.NewSession(icfg), reg, rec, nil
}

// writeObservability flushes the collected metrics snapshot and trace to
// the configured paths. Both files are written atomically (temp file in
// the destination directory, fsync, rename), so an interrupted or failed
// flush never leaves a truncated file — the previous snapshot, if any,
// survives intact.
func writeObservability(cfg Config, reg *metrics.Registry, rec *metrics.Recorder) error {
	if reg.Enabled() {
		if rec.Enabled() {
			// Fold the trace's own accounting into the snapshot.
			reg.AddUint("trace/events", uint64(rec.Len()))
			reg.AddUint("trace/dropped", rec.Dropped())
		}
		snap := reg.Snapshot()
		write := snap.WriteJSON
		if strings.HasSuffix(cfg.MetricsPath, ".csv") {
			write = snap.WriteCSV
		}
		if err := atomicio.WriteFile(cfg.MetricsPath, func(w io.Writer) error { return write(w) }); err != nil {
			return fmt.Errorf("charonsim: metrics: %w", err)
		}
	}
	if rec.Enabled() {
		if err := atomicio.WriteFile(cfg.TracePath, func(w io.Writer) error { return rec.WriteJSON(w) }); err != nil {
			return fmt.Errorf("charonsim: trace: %w", err)
		}
	}
	return nil
}

// Report is a rendered experiment result.
type Report struct {
	ID    string
	Title string
	Text  string
}

// Platform selects a hardware configuration for SimulateGC.
type Platform string

// The evaluated platforms (Figure 12, 15, 16).
const (
	PlatformDDR4              Platform = "ddr4"
	PlatformHMC               Platform = "hmc"
	PlatformCharon            Platform = "charon"
	PlatformCharonDistributed Platform = "charon-distributed"
	PlatformCharonCPUSide     Platform = "charon-cpuside"
	PlatformIdeal             Platform = "ideal"
)

func (p Platform) kind() (exec.Kind, error) {
	switch p {
	case PlatformDDR4:
		return exec.KindDDR4, nil
	case PlatformHMC:
		return exec.KindHMC, nil
	case PlatformCharon:
		return exec.KindCharon, nil
	case PlatformCharonDistributed:
		return exec.KindCharonDistributed, nil
	case PlatformCharonCPUSide:
		return exec.KindCharonCPUSide, nil
	case PlatformIdeal:
		return exec.KindIdeal, nil
	}
	return 0, fmt.Errorf("charonsim: unknown platform %q", string(p))
}

// Platforms lists the selectable platforms.
func Platforms() []Platform {
	return []Platform{PlatformDDR4, PlatformHMC, PlatformCharon,
		PlatformCharonDistributed, PlatformCharonCPUSide, PlatformIdeal}
}

// Workloads lists the benchmark short codes in the paper's order.
func Workloads() []string { return workload.Names() }

// WorkloadInfo describes one benchmark.
type WorkloadInfo struct {
	Name, Long, Framework, Dataset, PaperHeap string
	MinHeapBytes                              uint64
}

// DescribeWorkload returns metadata for a benchmark.
func DescribeWorkload(name string) (WorkloadInfo, error) {
	w, err := workload.New(name)
	if err != nil {
		return WorkloadInfo{}, err
	}
	sp := w.Spec()
	return WorkloadInfo{Name: sp.Name, Long: sp.Long, Framework: sp.Framework,
		Dataset: sp.Dataset, PaperHeap: sp.PaperHeap, MinHeapBytes: sp.MinHeapBytes}, nil
}

// experimentEntry binds an experiment id to its runner.
type experimentEntry struct {
	title string
	run   func(s *experiments.Session) (string, error)
}

// rendered adapts an experiment whose result renders itself to the
// experimentEntry runner shape.
func rendered[R interface{ Render() string }](run func(*experiments.Session) (R, error)) func(*experiments.Session) (string, error) {
	return func(s *experiments.Session) (string, error) {
		r, err := run(s)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

var experimentTable = map[string]experimentEntry{
	"fig2": {"GC overhead vs heap size", rendered(experiments.Fig2)},
	"fig4a": {"MinorGC runtime breakdown", rendered(func(s *experiments.Session) (*experiments.Fig4Result, error) {
		return experiments.Fig4(s, gc.Minor)
	})},
	"fig4b": {"MajorGC runtime breakdown", rendered(func(s *experiments.Session) (*experiments.Fig4Result, error) {
		return experiments.Fig4(s, gc.Major)
	})},
	"fig12": {"Overall GC speedup", rendered(experiments.Fig12)},
	"fig13": {"Bandwidth and locality", rendered(experiments.Fig13)},
	"fig14": {"Per-primitive speedups", rendered(experiments.Fig14)},
	"fig15": {"GC throughput scalability", rendered(experiments.Fig15)},
	"fig16": {"Memory-side vs CPU-side placement", rendered(experiments.Fig16)},
	"fig17": {"GC energy", rendered(experiments.Fig17)},
	"table1": {"Primitive applicability", func(*experiments.Session) (string, error) {
		return experiments.RenderTable1(), nil
	}},
	"table2": {"Architectural parameters", func(*experiments.Session) (string, error) {
		return experiments.RenderTable2(), nil
	}},
	"table3": {"Workloads", func(*experiments.Session) (string, error) {
		return experiments.RenderTable3(), nil
	}},
	"table4": {"Charon area", func(*experiments.Session) (string, error) {
		return experiments.RenderTable4(), nil
	}},
	"ablations": {"Design-space ablations (MAI, grain, bitmap cache, units, topology)", func(s *experiments.Session) (string, error) {
		rs, err := experiments.Ablations(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderAblations(rs), nil
	}},
	"collectors": {"Table 1 applicability study (ParallelScavenge vs G1 vs CMS)", rendered(experiments.CollectorStudy)},
	"thermal":    {"Power and thermal analysis", rendered(experiments.Thermal)},
	"faults":     {"Fault sweep: GC time under injected faults, healthy to all-units-failed", rendered(experiments.FigFaultSweep)},
}

// Experiments lists the available experiment ids in a stable order.
func Experiments() []string {
	ids := make([]string, 0, len(experimentTable))
	for id := range experimentTable {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// recoverInvariant is the public API's panic boundary: deferred at every
// entry point that executes simulation code, it converts an internal
// invariant panic into an error carrying the run descriptor. A watchdog
// abort (sim.Aborted) keeps its structured error so errors.Is against
// ErrNoProgress or context.Canceled works; anything else wraps
// ErrInternal with the panic value and stack.
func recoverInvariant(err *error, desc string) {
	if r := recover(); r != nil {
		if ab, ok := r.(sim.Aborted); ok {
			*err = fmt.Errorf("charonsim: %s aborted: %w", desc, ab.Err)
			return
		}
		*err = fmt.Errorf("charonsim: %s: %w: %v\n%s", desc, ErrInternal, r, debug.Stack())
	}
}

// runRecovered executes one experiment body behind the panic boundary.
func runRecovered(id string, fn func() (string, error)) (text string, err error) {
	defer recoverInvariant(&err, "experiment "+id)
	return fn()
}

// Run executes one experiment by id ("fig2", "fig4a", "fig4b", "fig12" ...
// "fig17", "table1" ... "table4", "thermal").
func Run(id string, cfg Config) (*Report, error) {
	return RunContext(context.Background(), id, cfg)
}

// RunContext is Run with cooperative cancellation: cancelling ctx stops
// dispatching new simulation units at event-loop granularity and the call
// returns an error wrapping ctx.Err().
func RunContext(ctx context.Context, id string, cfg Config) (*Report, error) {
	e, ok := experimentTable[id]
	if !ok {
		return nil, fmt.Errorf("charonsim: unknown experiment %q (have %v)", id, Experiments())
	}
	s, reg, rec, err := sessionFor(ctx, cfg)
	if err != nil {
		return nil, err
	}
	text, err := runRecovered(id, func() (string, error) { return e.run(s) })
	if err != nil {
		// Flush whatever observability the completed units produced; the
		// run error stays the primary failure.
		_ = writeObservability(cfg, reg, rec)
		return nil, err
	}
	if err := writeObservability(cfg, reg, rec); err != nil {
		return nil, err
	}
	return &Report{ID: id, Title: e.title, Text: text}, nil
}

// RunAll executes every experiment, sharing recorded workload runs and
// replays across experiments (the session's single-flight memoization
// records each workload and simulates each replay unit exactly once, no
// matter how many experiments need it or how many run at a time). Reports come back in Experiments() order and are
// byte-identical at every parallelism level; on error, the reports for
// experiments ordered before the first failing one are still returned.
func RunAll(cfg Config) ([]*Report, error) {
	return RunAllContext(context.Background(), cfg)
}

// RunAllContext is RunAll with cooperative cancellation. On cancellation
// (SIGINT via signal.NotifyContext, say) no new experiment or simulation
// unit is dispatched, the reports completed so far come back as a partial
// prefix, collected observability is still flushed, and the returned
// error wraps ctx.Err().
func RunAllContext(ctx context.Context, cfg Config) ([]*Report, error) {
	s, reg, rec, err := sessionFor(ctx, cfg)
	if err != nil {
		return nil, err
	}
	ids := Experiments()
	reports := make([]*Report, len(ids))
	errs := make([]error, len(ids))
	runOne := func(i int) error {
		e := experimentTable[ids[i]]
		text, err := runRecovered(ids[i], func() (string, error) { return e.run(s) })
		if err != nil {
			errs[i] = err
			return err
		}
		reports[i] = &Report{ID: ids[i], Title: e.title, Text: text}
		return nil
	}
	// The experiments themselves fan out too (bounded by the same
	// parallelism the per-experiment loops use), so wide hosts stay busy
	// even while the longest single experiment is still running.
	poolErr := experiments.ForEachCtx(ctx, s.Config().Parallelism, len(ids), runOne)
	var out []*Report
	var firstErr error
	for i, id := range ids {
		if errs[i] != nil {
			firstErr = fmt.Errorf("%s: %w", id, errs[i])
			break
		}
		if reports[i] == nil {
			// Never dispatched — the sweep was cancelled (or a serial run
			// stopped early); the pool's error says why.
			firstErr = poolErr
			break
		}
		out = append(out, reports[i])
	}
	if firstErr == nil {
		firstErr = poolErr
	}
	// Flush whatever the completed prefix produced even on a partial
	// sweep; a flush failure only surfaces when the run itself succeeded.
	if werr := writeObservability(cfg, reg, rec); werr != nil && firstErr == nil {
		firstErr = werr
	}
	return out, firstErr
}

// GCStats summarizes one workload's garbage collection on one platform.
type GCStats struct {
	Workload   string
	Platform   Platform
	HeapFactor float64
	Threads    int

	MinorGCs int
	MajorGCs int

	// TotalPause is the summed simulated GC pause time.
	TotalPause time.Duration
	// MutatorTime is the modelled useful execution time.
	MutatorTime time.Duration
	// PrimSeconds attributes pause time to each primitive by name.
	PrimSeconds map[string]float64
	// Bandwidth is the average GC-time memory bandwidth in GB/s.
	Bandwidth float64
	// LocalRatio is the near-memory local-access fraction (Charon only).
	LocalRatio float64
	// EnergyJoules is the modelled GC energy.
	EnergyJoules float64
	// LiveBytes / ReclaimedBytes sum over all GCs.
	LiveBytes      uint64
	ReclaimedBytes uint64
}

// Overhead returns GC time normalized to mutator time (Figure 2's metric).
func (g *GCStats) Overhead() float64 {
	if g.MutatorTime == 0 {
		return 0
	}
	return float64(g.TotalPause) / float64(g.MutatorTime)
}

// SimulateGC runs one workload at the given heap factor, replays its GC
// log on the chosen platform, and returns aggregate statistics.
func SimulateGC(name string, factor float64, p Platform, threads int) (st *GCStats, err error) {
	defer recoverInvariant(&err, fmt.Sprintf("SimulateGC(%s, %s)", name, p))
	sm, err := simulate(name, factor, p, threads)
	if err != nil {
		return nil, err
	}
	tot := experiments.Sum(sm.kind, sm.results, sm.threads)

	st = &GCStats{
		Workload: name, Platform: p, HeapFactor: sm.factor, Threads: sm.threads,
		TotalPause:   simToDuration(tot.Duration),
		MutatorTime:  simToDuration(sm.run.MutTime),
		PrimSeconds:  map[string]float64{},
		Bandwidth:    tot.BandwidthGBs(),
		LocalRatio:   tot.Local,
		EnergyJoules: float64(tot.Energy.Total()),
	}
	for pr := 0; pr < int(gc.NumPrims); pr++ {
		st.PrimSeconds[gc.Prim(pr).String()] = tot.PrimTime[pr].Seconds()
	}
	for _, ev := range sm.run.Col.Log {
		if ev.Kind == gc.Minor {
			st.MinorGCs++
		} else {
			st.MajorGCs++
		}
		st.LiveBytes += ev.LiveBytes
		st.ReclaimedBytes += ev.ReclaimedBytes
	}
	return st, nil
}

// simulation is one workload recorded and replayed on one platform, with
// the heap factor and thread count resolved to their defaults.
type simulation struct {
	kind    exec.Kind
	factor  float64
	threads int
	run     *experiments.Run
	results []exec.Result
}

// simulate validates the SimulateGC arguments, records the workload, and
// replays its GC log on platform p.
func simulate(name string, factor float64, p Platform, threads int) (simulation, error) {
	kind, err := p.kind()
	if err != nil {
		return simulation{}, err
	}
	if err := (Config{Threads: threads, HeapFactor: factor, Workloads: []string{name}}).Validate(); err != nil {
		return simulation{}, err
	}
	if factor == 0 {
		factor = 1.5
	}
	if threads == 0 {
		threads = 8
	}
	s := experiments.NewSession(experiments.Config{Threads: threads, Factor: factor})
	run, err := s.Record(name, factor)
	if err != nil {
		return simulation{}, err
	}
	results, err := s.Replay(run, kind, threads)
	if err != nil {
		return simulation{}, err
	}
	return simulation{kind: kind, factor: factor, threads: threads, run: run, results: results}, nil
}

func simToDuration(t sim.Time) time.Duration {
	return time.Duration(t / sim.Nanosecond * sim.Time(time.Nanosecond))
}

// GCEvent is one collection's outcome on a platform.
type GCEvent struct {
	Seq            int
	Kind           string // "minor", "major" or "marksweep"
	Reason         string
	Pause          time.Duration
	LiveBytes      uint64
	ReclaimedBytes uint64
	BandwidthGBs   float64
}

// SimulateGCEvents is SimulateGC with per-collection detail: one entry
// per GC event, in order, with its simulated pause on the chosen platform.
func SimulateGCEvents(name string, factor float64, p Platform, threads int) (evs []GCEvent, err error) {
	defer recoverInvariant(&err, fmt.Sprintf("SimulateGCEvents(%s, %s)", name, p))
	sm, err := simulate(name, factor, p, threads)
	if err != nil {
		return nil, err
	}
	out := make([]GCEvent, 0, len(sm.results))
	for i, r := range sm.results {
		ev := sm.run.Col.Log[i]
		out = append(out, GCEvent{
			Seq: ev.Seq, Kind: ev.Kind.String(), Reason: ev.Reason,
			Pause:          simToDuration(r.Duration),
			LiveBytes:      ev.LiveBytes,
			ReclaimedBytes: ev.ReclaimedBytes,
			BandwidthGBs:   r.Traffic.BandwidthGBs(r.Duration),
		})
	}
	return out, nil
}

// AreaSummary reports the Table 4 area model.
type AreaSummary struct {
	TotalMM2        float64
	PerCubeMM2      float64
	LogicLayerShare float64
}

// Area returns the accelerator area model (Table 4 totals).
func Area() AreaSummary {
	return AreaSummary{
		TotalMM2:        energy.TotalArea(),
		PerCubeMM2:      energy.AreaPerCube(),
		LogicLayerShare: energy.AreaFraction(),
	}
}
