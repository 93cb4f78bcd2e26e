package exec

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"charonsim/internal/cache"
	"charonsim/internal/charon"
	"charonsim/internal/cpu"
	"charonsim/internal/dram"
	"charonsim/internal/fault"
	"charonsim/internal/gc"
	hp "charonsim/internal/heap"
	"charonsim/internal/hmc"
	"charonsim/internal/memsys"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

// CubeShift is the HMC cube-interleave shift used for scaled heaps: 4 MB
// "huge pages" round-robin over the four cubes (the paper's bits 31:30
// scaled down per DESIGN.md §1).
const CubeShift = 22

// Result is the outcome of replaying one GC event on a platform.
type Result struct {
	// Duration is the GC pause: from event start to the last thread's
	// finish (including GC-start cache flush where applicable).
	Duration sim.Time
	// PrimTime attributes thread-summed time to each primitive.
	PrimTime [gc.NumPrims]sim.Time
	// Traffic is the memory-system traffic generated by this event.
	Traffic memsys.Stats
	// LocalRatio is the fraction of near-memory accesses serviced by the
	// issuing cube (Charon platforms; 0 otherwise).
	LocalRatio float64
	// HostBusy is the total host-core busy time (energy input).
	HostBusy sim.Time
	// UnitBusy is the total Charon-unit busy time (energy input).
	UnitBusy sim.Time
}

// TotalPrimTime sums the per-primitive attribution.
func (r *Result) TotalPrimTime() sim.Time {
	var t sim.Time
	for _, v := range r.PrimTime {
		t += v
	}
	return t
}

// Platform replays recorded GC events on a particular hardware
// configuration.
type Platform interface {
	Name() string
	// Replay simulates ev with nthreads GC threads and returns the result.
	// Platforms keep internal time monotonic across calls.
	Replay(ev *gc.Event, nthreads int) Result
}

// MetricsSource is implemented by every platform built here: after one or
// more replays, CollectMetrics publishes the platform's component counters
// (cores, caches, DRAM banks, HMC links/vaults, Charon units, platform
// clock) into reg under a platform-name prefix. Safe to call with a
// disabled (nil) registry.
type MetricsSource interface {
	CollectMetrics(reg *metrics.Registry)
}

// Kind selects a platform configuration.
type Kind int

const (
	// KindDDR4 is the baseline host over DDR4 (Figure 12 "DDR4").
	KindDDR4 Kind = iota
	// KindHMC is the host over the HMC main memory ("HMC").
	KindHMC
	// KindCharon is the near-memory accelerator ("Charon").
	KindCharon
	// KindCharonDistributed is Charon with distributed bitmap cache/TLB
	// slices (Figure 15).
	KindCharonDistributed
	// KindCharonCPUSide is Charon beside the memory controller (Figure 16).
	KindCharonCPUSide
	// KindIdeal executes offloaded primitives in zero cycles ("Ideal").
	KindIdeal
)

// Kinds lists every valid platform kind.
func Kinds() []Kind {
	return []Kind{KindDDR4, KindHMC, KindCharon,
		KindCharonDistributed, KindCharonCPUSide, KindIdeal}
}

// Validate rejects kinds outside the defined platform set. Construction
// surfaces this as a returned error (not a panic), so configuration layers
// can fold it into their own Validate paths.
func (k Kind) Validate() error {
	if k < KindDDR4 || k > KindIdeal {
		return fmt.Errorf("exec: unknown platform kind %d (have %v)", int(k), Kinds())
	}
	return nil
}

// String names the platform as in the paper's figures.
func (k Kind) String() string {
	switch k {
	case KindDDR4:
		return "DDR4"
	case KindHMC:
		return "HMC"
	case KindCharon:
		return "Charon"
	case KindCharonDistributed:
		return "Charon-dist"
	case KindCharonCPUSide:
		return "Charon-CPUside"
	case KindIdeal:
		return "Ideal"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Env carries the collector geometry a platform needs to replay its log.
type Env struct {
	Lay       gc.Layout
	HeapLo    hp.Addr
	HeapBytes uint64
}

// EnvFor derives the replay environment from a collector.
func EnvFor(c *gc.Collector) Env {
	lo, _ := c.H.Bounds()
	return Env{Lay: c.Lay, HeapLo: lo, HeapBytes: c.H.Config().HeapBytes}
}

// Options customizes a platform beyond the Table 2 defaults (ablation
// studies: unit counts, MAI depth, bitmap cache size, stream granularity,
// cube topology).
type Options struct {
	// CharonConfig overrides the accelerator configuration (Charon kinds
	// only). Zero-valued fields are filled from the defaults.
	CharonConfig *charon.Config
	// Topology selects the cube interconnect (default: star).
	Topology hmc.Topology
	// Trace, when non-nil, receives event spans (GC pauses, cache
	// flushes, Charon offloads) from every replay on this platform.
	Trace *metrics.Recorder
	// Fault, when non-nil and enabled, injects the configured reliability
	// faults into the platform's memory system and accelerator, and arms
	// the offload watchdog (see internal/fault). Nil or all-zero leaves
	// every timing path bit-identical to a fault-free build.
	Fault *fault.Config
	// Ctx, when non-nil, cancels in-flight replays at scheduler-step
	// granularity: each Replay call and each replay-scheduler stride
	// checks it, aborting with a sim.Aborted panic carrying ctx.Err() that
	// the harness's recovery path converts back into an error.
	Ctx context.Context
	// Watchdog overrides the replay scheduler's progress monitor. Nil arms
	// sim.DefaultWatchdog() (generous bounds that never trip a healthy
	// replay but convert livelocks into sim.ErrNoProgress); a pointer to
	// the zero value disables monitoring entirely.
	Watchdog *sim.Watchdog
}

// watchdog resolves the monitor configuration: defaults, plus the
// cancellation context (the watchdog is also the cancellation check).
func (o Options) watchdog() sim.Watchdog {
	wd := sim.DefaultWatchdog()
	if o.Watchdog != nil {
		wd = *o.Watchdog
	}
	if wd.Ctx == nil {
		wd.Ctx = o.Ctx
	}
	return wd
}

// New builds a platform of the given kind with nthreads host cores and
// Table 2 defaults. The kind must be valid: New panics on an unknown kind
// (internal invariant). Error-returning construction is NewWithOptions.
func New(kind Kind, env Env, nthreads int) Platform {
	p, err := NewWithOptions(kind, env, nthreads, Options{})
	if err != nil {
		panic(err)
	}
	return p
}

// NewWithOptions builds a platform with explicit knobs. An unknown kind
// is a configuration error, returned rather than panicked so callers can
// surface it through their validation paths.
func NewWithOptions(kind Kind, env Env, nthreads int, opt Options) (Platform, error) {
	if err := kind.Validate(); err != nil {
		return nil, err
	}
	var inj *fault.Injector
	if opt.Fault != nil {
		inj = fault.New(*opt.Fault)
	}
	wd := opt.watchdog()
	switch kind {
	case KindDDR4:
		mem := dram.NewDDR4(inj)
		return &hostPlatform{
			name: kind.String(), env: env,
			host:    newScaledHost(nthreads, mem),
			xs:      newExpanders(nthreads, env),
			traffic: func() memsys.Stats { return mem.Stats() },
			collect: func(reg *metrics.Registry, prefix string, horizon sim.Time) {
				mem.Collect(reg, prefix+"/dram", horizon)
			},
			rec: opt.Trace,
			mon: sim.NewMonitor(wd),
		}, nil
	case KindHMC:
		sys := hmc.NewSystem(CubeShift, opt.Topology, inj)
		backend := hostHMCBackend{sys}
		return &hostPlatform{
			name: kind.String(), env: env,
			host:    newScaledHost(nthreads, backend),
			xs:      newExpanders(nthreads, env),
			traffic: func() memsys.Stats { return sys.VaultStats() },
			collect: func(reg *metrics.Registry, prefix string, horizon sim.Time) {
				sys.Collect(reg, prefix+"/hmc", horizon)
			},
			rec: opt.Trace,
			mon: sim.NewMonitor(wd),
		}, nil
	case KindCharon, KindCharonDistributed, KindCharonCPUSide, KindIdeal:
		sys := hmc.NewSystem(CubeShift, opt.Topology, inj)
		cfg := charon.DefaultConfig()
		if opt.CharonConfig != nil {
			cfg = opt.CharonConfig.WithDefaults()
		}
		cfg.Distributed = cfg.Distributed || kind == KindCharonDistributed
		cfg.CPUSide = cfg.CPUSide || kind == KindCharonCPUSide
		accel := charon.NewFault(cfg, sys, inj)
		// The initialize() intrinsic (Section 4.1): register the pinned
		// regions — heap, card table, mark bitmaps, object stack, roots —
		// so the accelerator TLBs cover them before the first offload.
		x := newExpander(env.Lay, env.HeapLo, env.HeapBytes)
		accel.Initialize(1,
			charon.AddrRange{Base: uint64(env.HeapLo), Bytes: env.HeapBytes},
			charon.AddrRange{Base: uint64(env.Lay.CardBase), Bytes: env.HeapBytes / 512},
			charon.AddrRange{Base: uint64(env.Lay.BitmapBase), Bytes: env.HeapBytes / 32},
			charon.AddrRange{Base: uint64(env.Lay.StackBase), Bytes: 1 << 22},
			charon.AddrRange{Base: uint64(env.Lay.RootBase), Bytes: 1 << 23},
		)
		accel.SetRecorder(opt.Trace)
		return &charonPlatform{
			name: kind.String(), env: env,
			sys:      sys,
			accel:    accel,
			host:     newScaledHost(nthreads, hostHMCBackend{sys}),
			x:        x,
			xs:       newExpanders(nthreads, env),
			ideal:    kind == KindIdeal,
			rec:      opt.Trace,
			deadline: inj.Config().OffloadDeadline,
			mon:      sim.NewMonitor(wd),
		}, nil
	}
	// Unreachable: kind.Validate covers the full set above.
	return nil, kind.Validate()
}

// newScaledHost builds the host with capacity-scaled caches (see
// cache.ScaledL1DConfig: the heaps are scaled ~512x below the paper's, so
// the cache:heap proportion must be restored for faithful GC behaviour).
func newScaledHost(nthreads int, mem cpu.MemBackend) *cpu.Host {
	return cpu.NewHostWithCaches(nthreads, cpu.DefaultConfig(), mem,
		cache.ScaledL1DConfig(), cache.ScaledL2Config(), cache.ScaledL3Config())
}

// newExpanders builds one expander per thread.
func newExpanders(n int, env Env) []*expander {
	if n < 1 {
		n = 1
	}
	xs := make([]*expander, n)
	for i := range xs {
		xs[i] = newExpander(env.Lay, env.HeapLo, env.HeapBytes)
	}
	return xs
}

// hostHMCBackend adapts the HMC host path to cpu.MemBackend.
type hostHMCBackend struct{ sys *hmc.System }

func (b hostHMCBackend) AccessAt(start sim.Time, kind memsys.Kind, addr uint64, size uint32) sim.Time {
	return b.sys.HostAccessAt(start, kind, addr, size)
}

// --- thread scheduling -----------------------------------------------------------

// threadItem is one replaying thread's scheduling record.
type threadItem struct {
	now    sim.Time
	thread int
	next   int // next index into the thread's invocation list
}

// threadHeap orders replaying threads by their local clocks so that
// resource reservations are made in (approximately) global time order.
//
// The sift operations mirror container/heap's exact swap sequences. This
// matters: the ordering compares only the clocks, so equal-time pops are
// resolved by heap layout, and replay schedules (and therefore Report
// bytes) stay identical to the container/heap implementation this
// replaces — minus the interface{} boxing of a threadItem per step.
type threadHeap []threadItem

func (h threadHeap) less(i, j int) bool { return h[i].now < h[j].now }

func (h threadHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h threadHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (h threadHeap) init() {
	n := len(h)
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
}

func (h *threadHeap) push(it threadItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

func (h *threadHeap) pop() threadItem {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old.down(0, n)
	it := old[n]
	*h = old[:n]
	return it
}

// opBatch is the number of software-path micro-ops a thread executes per
// scheduling step. Small batches keep cross-thread resource reservations
// near global time order (large batches would let one thread book shared
// buses far into the future, falsely serializing the others).
const opBatch = 8

// stepResult is returned by a platform's per-invocation stepper.
type stepResult struct {
	t    sim.Time // thread time after this step
	done bool     // invocation finished
}

// stepper advances one invocation by one scheduling quantum. Platforms
// hand out pointers to per-thread reusable step state (softwareStep,
// charonStep), so beginning an invocation does not allocate.
type stepper interface {
	step(thread int, t sim.Time) stepResult
}

// schedState is one thread's in-flight invocation.
type schedState struct {
	step     stepper
	invStart sim.Time
}

// replaySched is reusable replay-scheduler scratch. Each platform owns
// one, so the per-event scheduling loop reuses the thread heap and state
// table across Replay calls instead of reallocating them.
type replaySched struct {
	th     threadHeap
	states []schedState
}

func (s *replaySched) reset(nthreads int) {
	if cap(s.states) < nthreads {
		s.th = make(threadHeap, 0, nthreads)
		s.states = make([]schedState, nthreads)
	}
	s.th = s.th[:0]
	s.states = s.states[:nthreads]
	for i := range s.states {
		s.states[i] = schedState{}
	}
}

// run drives the replay: invocations are dealt round-robin to nthreads
// threads (work partitioning), and threads execute in global time order
// at sub-invocation granularity. begin returns a stepper for one
// invocation on one thread.
//
// mon (may be nil) is the progress monitor: every scheduling step that
// neither advances a thread's clock nor completes an invocation counts as
// a stall, so a stepper that spins in place trips sim.ErrNoProgress with
// a dump of every thread's inflight work instead of hanging the sweep.
func (s *replaySched) run(start sim.Time, ev *gc.Event, nthreads int, mon *sim.Monitor,
	begin func(thread int, inv *gc.Invocation) stepper,
) (end sim.Time, prim [gc.NumPrims]sim.Time) {
	if nthreads < 1 {
		nthreads = 1
	}
	s.reset(nthreads)
	states := s.states
	// Partition: thread t owns invocations t, t+n, t+2n, ...
	for t := 0; t < nthreads && t < len(ev.Invocations); t++ {
		s.th = append(s.th, threadItem{now: start, thread: t, next: t})
		states[t] = schedState{step: begin(t, &ev.Invocations[t]), invStart: start}
	}
	s.th.init()
	end = start
	// cur is the thread popped off the heap for the current step — the one
	// a stall dump must name, since a wedged stepper is by definition the
	// executing one, not the parked ones.
	var cur threadItem
	diag := func() sim.Diagnostics {
		var b strings.Builder
		fmt.Fprintf(&b, "  replay scheduler: %d/%d threads inflight, %d invocations total\n",
			len(s.th)+1, nthreads, len(ev.Invocations))
		fmt.Fprintf(&b, "  thread %d (executing): t=%d ps, invocation %d (%v)\n",
			cur.thread, uint64(cur.now), cur.next, ev.Invocations[cur.next].Prim)
		for _, it := range s.th {
			fmt.Fprintf(&b, "  thread %d: t=%d ps, invocation %d (%v)\n",
				it.thread, uint64(it.now), it.next, ev.Invocations[it.next].Prim)
		}
		return sim.Diagnostics{Now: cur.now, Detail: b.String()}
	}
	for len(s.th) > 0 {
		it := s.th.pop()
		cur = it
		st := &states[it.thread]
		r := st.step.step(it.thread, it.now)
		if r.t < it.now {
			r.t = it.now
		}
		mon.Tick(r.done || r.t > it.now, diag)
		it.now = r.t
		if r.t > end {
			end = r.t
		}
		if r.done {
			prim[ev.Invocations[it.next].Prim] += r.t - st.invStart
			it.next += nthreads
			if it.next >= len(ev.Invocations) {
				continue
			}
			st.step = begin(it.thread, &ev.Invocations[it.next])
			st.invStart = r.t
		}
		s.th.push(it)
	}
	return end, prim
}

// softwareStep executes an expanded op stream on a core in opBatch
// quanta, resolving dependencies across batches via the core's stream
// ring. One reusable instance lives per thread on each platform;
// beginning an invocation rebinds it instead of allocating a closure.
//
// Inline, ops is the whole invocation and each batch walks its lines
// through L1/L2 as it executes. Fed by a walkFeed, ops is one span of the
// invocation at a time, with its lines' private-level outcomes in priv.
type softwareStep struct {
	core *cpu.Core
	ops  []cpu.Op
	priv []cache.Private
	feed *walkFeed // nil: inline
	last bool      // ops is the invocation's last span
	// base is the stream position where this invocation began: recorded
	// deps are relative to the invocation start.
	base int
}

// start binds the stepper to one invocation: its ops when feed is nil,
// else the feed's next spans.
func (s *softwareStep) start(core *cpu.Core, ops []cpu.Op, feed *walkFeed) *softwareStep {
	s.core, s.ops, s.priv, s.feed, s.last, s.base = core, ops, nil, feed, feed == nil, core.StreamPos()
	return s
}

func (s *softwareStep) step(_ int, t sim.Time) stepResult {
	for len(s.ops) == 0 && !s.last {
		s.ops, s.priv, s.last = s.feed.next()
	}
	if len(s.ops) == 0 {
		return stepResult{t: t, done: true}
	}
	b := s.ops[:min(opBatch, len(s.ops))]
	var finish sim.Time
	if s.feed == nil {
		finish = s.core.ExecBatch(t, b, s.base)
	} else {
		var used int
		finish, used = s.core.ExecWalked(t, b, s.base, s.priv)
		s.priv = s.priv[used:]
	}
	s.ops = s.ops[len(b):]
	return stepResult{t: finish, done: len(s.ops) == 0 && s.last}
}

// --- host platform ----------------------------------------------------------------

type hostPlatform struct {
	name    string
	env     Env
	host    *cpu.Host
	xs      []*expander // one per thread (expansions outlive a scheduling step)
	traffic func() memsys.Stats
	collect func(reg *metrics.Registry, prefix string, horizon sim.Time)
	rec     *metrics.Recorder
	mon     *sim.Monitor // progress/cancellation monitor (nil = disabled)
	clock   sim.Time
	events  uint64
	sched   replaySched
	swSteps []softwareStep // one reusable software-path stepper per thread

	// Private-level walk ahead of the timing pass (walk.go): one feed per
	// thread, and the running event's producers.
	feeds     []walkFeed
	producers sync.WaitGroup
}

func (p *hostPlatform) Name() string { return p.name }

// metricsPrefix is the platform-name namespace component counters are
// published under (e.g. "ddr4/cpu/core0/busy_ps").
func metricsPrefix(name string) string { return strings.ToLower(name) }

// collectEngine publishes the counters common to all platforms.
func collectEngine(reg *metrics.Registry, prefix string, clock sim.Time, events uint64) {
	// Constant zeros: the bench replay oracle hashes the full snapshot.
	reg.AddUint(prefix+"/sim/events", 0)
	reg.SetMax(prefix+"/sim/max_queue_depth", 0)
	reg.SetMax(prefix+"/clock_ps", float64(clock))
	reg.AddUint(prefix+"/gc_events", events)
}

// CollectMetrics implements MetricsSource.
func (p *hostPlatform) CollectMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		return
	}
	prefix := metricsPrefix(p.name)
	p.host.Collect(reg, prefix+"/cpu")
	p.collect(reg, prefix, p.clock)
	collectEngine(reg, prefix, p.clock, p.events)
}

func (p *hostPlatform) Replay(ev *gc.Event, nthreads int) Result {
	p.mon.CheckCtx() // cancellation boundary: before each GC event
	before := p.traffic()
	busyBefore := p.host.Stats().Busy
	start := p.clock

	// GC begins with cold caches (the mutator ran in between): drop
	// contents without charging the GC (host GCs do not bulk-flush).
	for _, c := range p.host.Cores {
		c.Hierarchy().Levels[0].Flush()
		c.Hierarchy().Levels[1].Flush()
	}
	p.host.L3.Flush()

	major := ev.Kind != gc.Minor
	if len(p.swSteps) < nthreads {
		p.swSteps = make([]softwareStep, nthreads)
	}
	begin := func(thread int, inv *gc.Invocation) stepper {
		core := p.host.Cores[thread%len(p.host.Cores)]
		x := p.xs[thread%len(p.xs)]
		return p.swSteps[thread].start(core, x.expandCopy(inv, ev, major), nil)
	}
	// When every thread has a core and an expander of its own, its L1/L2
	// walk runs ahead on a goroutine of its own.
	if nthreads <= len(p.host.Cores) && nthreads <= len(p.xs) {
		defer p.stopWalk(p.walkAhead(ev, max(nthreads, 1), major))
		begin = func(thread int, _ *gc.Invocation) stepper {
			return p.swSteps[thread].start(p.host.Cores[thread], nil, &p.feeds[thread])
		}
	}
	end, prim := p.sched.run(start, ev, nthreads, p.mon, begin)

	p.events++
	p.rec.Span(ev.Kind.String(), "gc", charon.TracePidHost, 0, start, end)
	p.clock = end + sim.Microsecond // inter-GC gap
	after := p.traffic()
	var tr memsys.Stats
	tr.Reads = after.Reads - before.Reads
	tr.Writes = after.Writes - before.Writes
	tr.ReadBytes = after.ReadBytes - before.ReadBytes
	tr.WriteBytes = after.WriteBytes - before.WriteBytes

	return Result{
		Duration: end - start,
		PrimTime: prim,
		Traffic:  tr,
		HostBusy: p.host.Stats().Busy - busyBefore,
	}
}

// walkAhead starts one producer per thread that has invocations in ev,
// each walking its thread's stream through its own core's L1/L2 into the
// thread's feed. Closing the returned channel stops them.
func (p *hostPlatform) walkAhead(ev *gc.Event, nthreads int, major bool) chan struct{} {
	if len(p.feeds) < nthreads {
		p.feeds = make([]walkFeed, nthreads)
		for i := range p.feeds {
			p.feeds[i].ch = make(chan *walkChunk, feedDepth)
		}
	}
	quit := make(chan struct{})
	for t := 0; t < nthreads && t < len(ev.Invocations); t++ {
		p.producers.Add(1)
		go func() {
			defer p.producers.Done()
			produce(p.host.Cores[t].Hierarchy(), p.xs[t], ev, major, t, nthreads, p.feeds[t].ch, quit)
		}()
	}
	return quit
}

// stopWalk stops and joins the producers and returns every chunk to the
// pool. Deferred by Replay, it also runs when a cancelled or wedged replay
// aborts mid-event, so no producer outlives the Replay call.
func (p *hostPlatform) stopWalk(quit chan struct{}) {
	close(quit)
	p.producers.Wait()
	for i := range p.feeds {
		p.feeds[i].release()
	}
}

// --- Charon platform ----------------------------------------------------------------

type charonPlatform struct {
	name   string
	env    Env
	sys    *hmc.System
	accel  *charon.Accelerator
	host   *cpu.Host
	x      *expander   // for endOff and RefOp conversion
	xs     []*expander // per-thread software-path expanders
	ideal  bool
	rec    *metrics.Recorder
	mon    *sim.Monitor // progress/cancellation monitor (nil = disabled)
	clock  sim.Time
	events uint64

	// deadline arms the offload watchdog: an offload completing later
	// than issue+deadline is abandoned and its primitive re-run on the
	// host cores from the deadline expiry. Zero disables it.
	deadline sim.Time

	// Degradation accounting. Every offload that could not (or did not,
	// in time) run on the accelerator is a degradation event: degNoUnit
	// counts dispatch-time fallbacks (no healthy unit for the primitive),
	// degDeadline counts watchdog firings, degPerEvent records the count
	// per GC event for the published distribution.
	degNoUnit   uint64
	degDeadline uint64
	degThisEv   uint64
	degPerEvent []uint64

	refOps  []charon.RefOp
	sched   replaySched
	swSteps []softwareStep // per-thread software-path steppers
	chSteps []charonStep   // per-thread offload steppers
}

// degradation records one degradation event on the running GC event.
func (p *charonPlatform) degradation(deadline bool) {
	if deadline {
		p.degDeadline++
	} else {
		p.degNoUnit++
	}
	p.degThisEv++
}

// DegradationEvents exposes the running totals (dispatch fallbacks,
// watchdog fallbacks) for tests and reporting.
func (p *charonPlatform) DegradationEvents() (noUnit, deadline uint64) {
	return p.degNoUnit, p.degDeadline
}

func (p *charonPlatform) Name() string { return p.name }

// CollectMetrics implements MetricsSource.
func (p *charonPlatform) CollectMetrics(reg *metrics.Registry) {
	if !reg.Enabled() {
		return
	}
	prefix := metricsPrefix(p.name)
	p.host.Collect(reg, prefix+"/cpu")
	p.sys.Collect(reg, prefix+"/hmc", p.clock)
	p.accel.Collect(reg, prefix+"/charon", p.clock)
	if p.degNoUnit > 0 || p.degDeadline > 0 {
		reg.AddUint(prefix+"/degradation/no_unit", p.degNoUnit)
		reg.AddUint(prefix+"/degradation/deadline", p.degDeadline)
		for _, n := range p.degPerEvent {
			reg.Observe(prefix+"/degradation/per_gc_event", float64(n))
		}
	}
	collectEngine(reg, prefix, p.clock, p.events)
}

// execAll runs a full op stream on a core starting at t, batched exactly
// like softwareStepper, and returns the completion time. Used by the
// watchdog's host fallback, which runs synchronously inside an offload
// step rather than through the thread heap.
func execAll(core *cpu.Core, ops []cpu.Op, t sim.Time) sim.Time {
	base := core.StreamPos()
	for i := 0; i < len(ops); i += opBatch {
		end := i + opBatch
		if end > len(ops) {
			end = len(ops)
		}
		t = core.ExecBatch(t, ops[i:end], base)
	}
	return t
}

// idealStepper completes an offloadable invocation in zero time (the
// paper's "Ideal" platform). Stateless, so handing it out never allocates.
type idealStepper struct{}

func (idealStepper) step(_ int, t sim.Time) stepResult { return stepResult{t: t, done: true} }

// charonStep is a per-thread reusable stepper for offloaded invocations.
// The offload is a single blocking call from the host thread's
// perspective, guarded by the offload watchdog: if the modelled
// completion exceeds issue+deadline, the offload is abandoned (its
// reservations stand — the hardware did the work, the host just stopped
// waiting) and the primitive re-runs on the issuing thread's host core
// from the deadline expiry.
type charonStep struct {
	p     *charonPlatform
	ev    *gc.Event
	inv   *gc.Invocation
	major bool
}

func (s *charonStep) start(p *charonPlatform, ev *gc.Event, inv *gc.Invocation, major bool) *charonStep {
	s.p, s.ev, s.inv, s.major = p, ev, inv, major
	return s
}

// offload dispatches the invocation to the accelerator unit for its
// primitive. Callers have already checked unit availability.
func (s *charonStep) offload(t sim.Time) sim.Time {
	p, inv := s.p, s.inv
	switch inv.Prim {
	case gc.PrimCopy:
		return p.accel.OffloadCopy(t, uint64(inv.A), uint64(inv.B), inv.N)
	case gc.PrimSearch:
		return p.accel.OffloadSearch(t, uint64(inv.A), inv.N)
	case gc.PrimBitmapCount:
		beg := uint64(inv.A)
		return p.accel.OffloadBitmapCount(t, beg, beg+p.x.endOff, inv.N)
	default: // gc.PrimScanPush — the only other offloadable primitive
		refs := p.toRefOps(s.ev, inv, s.major)
		return p.accel.OffloadScanPush(t, uint64(inv.A), refs, uint64(inv.B))
	}
}

func (s *charonStep) step(thread int, t sim.Time) stepResult {
	p := s.p
	done := s.offload(t)
	if p.deadline == 0 || done <= t+p.deadline {
		return stepResult{t: done, done: true}
	}
	p.degradation(true)
	core := p.host.Cores[thread%len(p.host.Cores)]
	x := p.xs[thread%len(p.xs)]
	ops := x.expandCopy(s.inv, s.ev, s.major)
	host := execAll(core, ops, t+p.deadline)
	p.rec.Span("deadline-fallback", "degraded", charon.TracePidHost, 2, t, host)
	return stepResult{t: host, done: true}
}

// toRefOps converts recorded reference visits into accelerator work.
func (p *charonPlatform) toRefOps(ev *gc.Event, inv *gc.Invocation, major bool) []charon.RefOp {
	refs := ev.Refs[inv.RefOff : inv.RefOff+inv.RefLen]
	out := p.refOps[:0]
	for i := range refs {
		r := &refs[i]
		op := charon.RefOp{Slot: uint64(r.Slot), Target: uint64(r.Target)}
		if r.Target != 0 && r.Flags != gc.RefNull {
			// is_unmarked: a header load during MinorGC, a bitmap-cache
			// probe during MajorGC (plus the mark RMW for fresh marks).
			op.CheckHeader = !major
			op.BitmapProbe = major
			op.MarkBitmap = major && r.Flags&gc.RefNewlyMarked != 0
			op.Push = r.Flags&gc.RefPushed != 0
			op.UpdateSlot = r.Flags&gc.RefForwardUpdate != 0
			if r.Flags&gc.RefCardDirty != 0 {
				op.DirtyCard = true
				op.CardAddr = uint64(p.env.Lay.CardBase) + uint64(r.Slot-p.env.HeapLo)/512
			}
		}
		out = append(out, op)
	}
	p.refOps = out
	return out
}

func (p *charonPlatform) Replay(ev *gc.Event, nthreads int) Result {
	p.mon.CheckCtx() // cancellation boundary: before each GC event
	tsBefore := p.sys.VaultStats()
	linkBefore := p.linkBytes()
	localBefore, remoteBefore := p.sys.LocalAccesses, p.sys.RemoteAccesses
	busyBefore := p.host.Stats().Busy
	csB, spB, bcB := p.accel.UnitBusy()
	start := p.clock
	p.degThisEv = 0

	// With every accelerator unit failed the platform degenerates to the
	// host-only collector (the paper's baseline path): no coherence flush
	// is owed to dead units, so caches drop uncharged exactly as on a host
	// platform, and every primitive runs in software.
	allFailed := !p.ideal && p.accel.AllUnitsFailed()

	// Section 4.6: Charon flushes the host cache hierarchy at GC start so
	// the near-memory units read consistent data; the flush traffic is
	// charged, and all GC threads begin when it drains.
	flushEnd := start
	if allFailed {
		for _, c := range p.host.Cores {
			c.Hierarchy().Levels[0].Flush()
			c.Hierarchy().Levels[1].Flush()
		}
		p.host.L3.Flush()
	} else {
		for _, c := range p.host.Cores {
			if d := c.FlushCaches(start); d > flushEnd {
				flushEnd = d
			}
		}
	}

	major := ev.Kind != gc.Minor
	if len(p.swSteps) < nthreads {
		p.swSteps = make([]softwareStep, nthreads)
		p.chSteps = make([]charonStep, nthreads)
	}
	software := func(thread int, inv *gc.Invocation) stepper {
		core := p.host.Cores[thread%len(p.host.Cores)]
		x := p.xs[thread%len(p.xs)]
		return p.swSteps[thread].start(core, x.expandCopy(inv, ev, major), nil)
	}
	end, prim := p.sched.run(flushEnd, ev, nthreads, p.mon,
		func(thread int, inv *gc.Invocation) stepper {
			if p.ideal && inv.Prim.Offloadable() {
				return idealStepper{}
			}
			if allFailed {
				if inv.Prim.Offloadable() {
					p.degradation(false)
				}
				return software(thread, inv)
			}
			switch inv.Prim {
			case gc.PrimCopy, gc.PrimSearch:
				if !p.accel.CanCopySearch() {
					p.degradation(false)
					return software(thread, inv)
				}
			case gc.PrimBitmapCount:
				if !p.accel.CanBitmapCount() {
					p.degradation(false)
					return software(thread, inv)
				}
			case gc.PrimScanPush:
				if !p.accel.CanScanPush() {
					p.degradation(false)
					return software(thread, inv)
				}
			default:
				return software(thread, inv)
			}
			return p.chSteps[thread].start(p, ev, inv, major)
		})

	// Coherence flush of the bitmap cache after full-GC phases. Dead
	// units never touched the bitmap caches, so the all-failed path owes
	// no flush (keeping it time-identical to the host baseline).
	if major && !p.ideal && !allFailed {
		bmFlushStart := end
		if d := p.accel.FlushBitmapCaches(end); d > end {
			end = d
			p.rec.Span("bmcache-flush", "flush", charon.TracePidHost, 0, bmFlushStart, end)
		}
	}

	p.events++
	p.degPerEvent = append(p.degPerEvent, p.degThisEv)
	if flushEnd > start {
		p.rec.Span("host-cache-flush", "flush", charon.TracePidHost, 1, start, flushEnd)
	}
	p.rec.Span(ev.Kind.String(), "gc", charon.TracePidHost, 0, start, end)
	p.clock = end + sim.Microsecond
	tsAfter := p.sys.VaultStats()
	var tr memsys.Stats
	tr.Reads = tsAfter.Reads - tsBefore.Reads
	tr.Writes = tsAfter.Writes - tsBefore.Writes
	tr.ReadBytes = tsAfter.ReadBytes - tsBefore.ReadBytes
	tr.WriteBytes = tsAfter.WriteBytes - tsBefore.WriteBytes
	tr.ReadBytes += p.linkBytes() - linkBefore // count link traffic too

	local := p.sys.LocalAccesses - localBefore
	remote := p.sys.RemoteAccesses - remoteBefore
	ratio := 0.0
	if local+remote > 0 {
		ratio = float64(local) / float64(local+remote)
	}

	csA, spA, bcA := p.accel.UnitBusy()
	return Result{
		Duration:   end - start,
		PrimTime:   prim,
		Traffic:    tr,
		LocalRatio: ratio,
		HostBusy:   p.host.Stats().Busy - busyBefore,
		UnitBusy:   (csA - csB) + (spA - spB) + (bcA - bcB),
	}
}

func (p *charonPlatform) linkBytes() uint64 {
	total := p.sys.HostLink().Stats.Bytes()
	for i := 1; i < 4; i++ {
		total += p.sys.CubeLink(i).Stats.Bytes()
	}
	return total
}

// Accelerator exposes the accelerator for stats inspection.
func (p *charonPlatform) Accelerator() *charon.Accelerator { return p.accel }
