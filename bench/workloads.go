package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"

	"charonsim"
	"charonsim/internal/exec"
	"charonsim/internal/experiments"
	"charonsim/internal/gc"
	"charonsim/internal/metrics"
)

const (
	suiteWorkload = "ALS"
	suiteFactor   = 1.5
	replayFactor  = 1.5
	replayThreads = 8
)

// outcome is what one execution of a workload measured. Times are
// seconds at reference host speed; the raw ones are as the clock read.
type outcome struct {
	tally
	setup, wall       float64
	rawSetup, rawWall float64
	layer             map[string]float64 // per-layer values the workload measured
}

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"suite-als", "replay-host", "replay-charon", "serve-mix"}

// units is how many units of work, each nominally taking nominal host
// seconds, fill a run of secs seconds. The count depends only on the
// flags, so the work is the same on every host.
func units(secs int, nominal float64) int {
	return max(1, int(math.Round(float64(secs)/nominal)))
}

// work executes a workload once, traced or not.
type work func(traced bool, tr *tracer) (outcome, error)

// plan sizes a workload for a run of secs seconds.
func plan(name string, seed int64, secs int) (work, error) {
	switch name {
	case "suite-als":
		return suiteCfg{workload: suiteWorkload, experiments: charonsim.Experiments(),
			runs: units(secs, 17), setups: 5, oracle: mustOracle("suite")}.run, nil
	case "replay-host":
		return replayCfg{workloads: charonsim.Workloads(), kinds: hostKinds,
			passes: units(secs, 7), setups: 3, seed: seed, oracle: mustOracle("replay")}.run, nil
	case "replay-charon":
		return replayCfg{workloads: charonsim.Workloads(), kinds: charonKinds,
			passes: units(secs, 7), setups: 3, seed: seed, oracle: mustOracle("replay")}.run, nil
	case "serve-mix":
		scaled := func(n int) int { return max(1, int(math.Round(float64(n*secs)/20))) }
		return serveCfg{clients: 2, workers: 2, setups: 5,
			fresh: scaled(50), repeats: scaled(25), admin: scaled(20), sweeps: scaled(8),
			seed: seed, oracle: mustOracle("serve")}.run, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
}

func mustOracle(name string) oracle {
	o, err := loadOracle(name)
	if err != nil {
		panic(err) // the tables are embedded at build time
	}
	return o
}

// setUp runs a workload's set-up n times and stores the medians in out.
func setUp(n int, tr *tracer, out *outcome, fn func(span int) error) error {
	clock := newHostClock()
	var norm, raw []float64
	for i := 0; i < n; i++ {
		id := tr.begin("setup", 0)
		clock.start()
		err := fn(id)
		d, r := clock.stop()
		tr.end(id)
		if err != nil {
			return err
		}
		norm, raw = append(norm, d), append(raw, r)
	}
	out.setup, out.rawSetup = median(norm), median(raw)
	return nil
}

// suiteCfg is the whole experiment suite on one workload, run serially:
// RunAll's experiments, in its order and with its settings, over one
// shared session, so that each Fig* call can be timed on its own. The
// report texts must equal RunAll's.
type suiteCfg struct {
	workload    string
	experiments []string
	runs        int
	setups      int
	oracle      oracle
}

// suiteRunners renders each experiment's report text exactly as RunAll
// does.
var suiteRunners = map[string]func(*experiments.Session) (string, error){
	"fig2":  rendered(experiments.Fig2),
	"fig4a": rendered(func(s *experiments.Session) (*experiments.Fig4Result, error) { return experiments.Fig4(s, gc.Minor) }),
	"fig4b": rendered(func(s *experiments.Session) (*experiments.Fig4Result, error) { return experiments.Fig4(s, gc.Major) }),
	"fig12": rendered(experiments.Fig12),
	"fig13": rendered(experiments.Fig13),
	"fig14": rendered(experiments.Fig14),
	"fig15": rendered(experiments.Fig15),
	"fig16": rendered(experiments.Fig16),
	"fig17": rendered(experiments.Fig17),
	"ablations": func(s *experiments.Session) (string, error) {
		rs, err := experiments.Ablations(s)
		if err != nil {
			return "", err
		}
		return experiments.RenderAblations(rs), nil
	},
	"collectors": rendered(experiments.CollectorStudy),
	"thermal":    rendered(experiments.Thermal),
	"faults":     rendered(experiments.FigFaultSweep),
	"table1":     constant(experiments.RenderTable1),
	"table2":     constant(experiments.RenderTable2),
	"table3":     constant(experiments.RenderTable3),
	"table4":     constant(experiments.RenderTable4),
}

func rendered[R interface{ Render() string }](f func(*experiments.Session) (R, error)) func(*experiments.Session) (string, error) {
	return func(s *experiments.Session) (string, error) {
		r, err := f(s)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

func constant(f func() string) func(*experiments.Session) (string, error) {
	return func(*experiments.Session) (string, error) { return f(), nil }
}

func newSuiteSession(workload string, reg *metrics.Registry, clock *hostClock) *experiments.Session {
	return experiments.NewSession(experiments.Config{Workloads: []string{workload}, Parallelism: -1,
		Metrics: reg, Ctx: clock})
}

// run sets up by recording the workload in a fresh session, then runs the
// suite. Traced, the session also collects the model counters.
func (c suiteCfg) run(traced bool, tr *tracer) (outcome, error) {
	out := outcome{layer: map[string]float64{}}
	err := setUp(c.setups, tr, &out, func(int) error {
		_, err := newSuiteSession(c.workload, nil, newHostClock()).Record(c.workload, suiteFactor)
		return err
	})
	if err != nil {
		return out, err
	}
	var walls, raws []float64
	layer := map[string][]float64{}
	for i := 0; i < c.runs; i++ {
		var reg *metrics.Registry
		if traced {
			reg = metrics.NewRegistry()
		}
		clock := newHostClock()
		s := newSuiteSession(c.workload, reg, clock)
		var wall, raw float64
		root := tr.begin("suite", 0)
		// step times one call, and files it under metric when that is not
		// empty.
		step := func(span, metric string, call func() error) error {
			id := tr.begin(span, root)
			clock.start()
			err := call()
			d, r := clock.stop()
			tr.end(id)
			wall, raw = wall+d, raw+r
			if metric != "" {
				layer[metric] = append(layer[metric], d)
			}
			return err
		}
		err := step("record", "record.s", func() error {
			_, err := s.Record(c.workload, suiteFactor)
			return err
		})
		if err != nil {
			tr.end(root)
			return out, err
		}
		for _, e := range c.experiments {
			runner, ok := suiteRunners[e]
			if !ok {
				fmt.Fprintf(os.Stderr, "suite: no runner for experiment %q\n", e)
				out.add(failed)
				continue
			}
			metric := ""
			if isSimExperiment(e) {
				metric = "exp." + e + "_s"
			}
			var text string
			err := step("exp."+e, metric, func() (err error) {
				text, err = runner(s)
				return err
			})
			if err != nil {
				fmt.Fprintf(os.Stderr, "suite: %s: %v\n", e, err)
				out.add(failed)
				continue
			}
			out.add(c.oracle.verify(e, digest([]byte(text))))
		}
		tr.end(root)
		walls, raws = append(walls, wall), append(raws, raw)
		if traced {
			for name, v := range modelValues(reg) {
				layer[name] = append(layer[name], v)
			}
		}
	}
	out.wall, out.rawWall = median(walls), median(raws)
	for name, vs := range layer {
		out.layer[name] = median(vs)
	}
	return out, nil
}

func isSimExperiment(id string) bool {
	for _, e := range simExperiments {
		if e == id {
			return true
		}
	}
	return false
}

// kindName pairs a platform kind with the span metric its replays feed.
type kindName struct {
	kind   exec.Kind
	metric string
}

var (
	hostKinds   = []kindName{{exec.KindDDR4, "replay.ddr4_s"}, {exec.KindHMC, "replay.hmc_s"}}
	charonKinds = []kindName{
		{exec.KindCharon, "replay.charon_s"},
		{exec.KindCharonDistributed, "replay.charon_dist_s"},
		{exec.KindCharonCPUSide, "replay.charon_cpuside_s"},
	}
)

// replayCfg replays recorded GC logs on platform kinds, in passes.
type replayCfg struct {
	workloads []string
	kinds     []kindName
	passes    int
	setups    int
	seed      int64 // orders the units of each pass
	oracle    oracle
}

func unitKey(workload string, kind exec.Kind) string { return workload + "/" + kind.String() }

// unitResult is one (recording, kind) replay. Times are seconds at
// reference host speed, raw as the clock read.
type unitResult struct {
	digest                string // of every exec.Result plus the counter snapshot
	counters              *metrics.Registry
	total, raw, construct float64
}

// replayUnit replays a recording's whole GC log on a fresh platform,
// through the exec layer's exported API.
func replayUnit(tr *tracer, parent int, clock *hostClock, run *experiments.Run, kind exec.Kind) (unitResult, error) {
	id := tr.begin("replay."+unitKey(run.Name, kind), parent)
	defer tr.end(id)
	clock.start()
	cid := tr.begin("construct", id)
	p, err := exec.NewWithOptions(kind, run.Env, replayThreads, exec.Options{Ctx: clock})
	construct := tr.end(cid)
	if err != nil {
		clock.stop()
		return unitResult{}, err
	}
	results := make([]exec.Result, 0, len(run.Col.Log))
	for _, ev := range run.Col.Log {
		results = append(results, p.Replay(ev, replayThreads))
	}
	reg := metrics.NewRegistry()
	p.(exec.MetricsSource).CollectMetrics(reg) // every exec platform is one
	total, raw := clock.stop()
	b, err := json.Marshal(struct {
		Results  []exec.Result
		Counters metrics.Snapshot
	}{results, reg.Snapshot()})
	return unitResult{digest: digest(b), counters: reg,
		total: total, raw: raw, construct: construct * ratio(total, raw)}, err
}

// run sets up by recording every workload in a fresh session, then
// replays each recording on each kind once per pass.
func (c replayCfg) run(_ bool, tr *tracer) (outcome, error) {
	out := outcome{layer: map[string]float64{}}
	var runs []*experiments.Run
	err := setUp(c.setups, tr, &out, func(span int) error {
		s := experiments.NewSession(experiments.Config{Parallelism: -1})
		runs = runs[:0]
		for _, w := range c.workloads {
			id := tr.begin("record."+w, span)
			r, err := s.Record(w, replayFactor)
			tr.end(id)
			if err != nil {
				return err
			}
			runs = append(runs, r)
		}
		return nil
	})
	if err != nil {
		return out, err
	}

	type unit struct {
		run  *experiments.Run
		kind kindName
	}
	var todo []unit
	for _, r := range runs {
		for _, k := range c.kinds {
			todo = append(todo, unit{r, k})
		}
	}
	rng := rand.New(rand.NewSource(c.seed))
	clock := newHostClock()
	counters := metrics.NewRegistry()
	layer := map[string][]float64{}
	var walls, raws []float64
	for p := 0; p < c.passes; p++ {
		rng.Shuffle(len(todo), func(i, j int) { todo[i], todo[j] = todo[j], todo[i] })
		var wall, raw, construct float64
		kindTime := map[string]float64{}
		pid := tr.begin("pass", 0)
		for _, u := range todo {
			// Every unit starts from a collected heap, so the order the
			// seed picks moves neither peak memory nor which unit pays for
			// the previous one's garbage.
			runtime.GC()
			res, err := replayUnit(tr, pid, clock, u.run, u.kind.kind)
			if err != nil {
				fmt.Fprintln(os.Stderr, "replay:", err)
				out.add(failed)
				continue
			}
			wall, raw = wall+res.total, raw+res.raw
			construct += res.construct
			kindTime[u.kind.metric] += res.total
			out.add(c.oracle.verify(unitKey(u.run.Name, u.kind.kind), res.digest))
			if p == 0 {
				counters.Merge(res.counters)
			}
		}
		tr.end(pid)
		walls, raws = append(walls, wall), append(raws, raw)
		layer["replay.construct_s"] = append(layer["replay.construct_s"], construct)
		for _, kn := range c.kinds {
			layer[kn.metric] = append(layer[kn.metric], kindTime[kn.metric])
		}
	}

	out.wall, out.rawWall = median(walls), median(raws)
	out.layer["record.s"] = out.setup
	for name, vs := range layer {
		out.layer[name] = median(vs)
	}
	model := modelValues(counters)
	for name, v := range model {
		out.layer[name] = v
	}
	host := out.layer["replay.ddr4_s"] + out.layer["replay.hmc_s"]
	near := out.layer["replay.charon_s"] + out.layer["replay.charon_dist_s"] + out.layer["replay.charon_cpuside_s"]
	out.layer["replay.ns_per_l1_access"] = ratio(host*1e9, model["cache.l1_accesses"])
	out.layer["replay.ns_per_charon_request"] = ratio(near*1e9, model["charon.request_packets"])
	return out, nil
}
