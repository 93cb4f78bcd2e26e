package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"time"

	"charonsim/internal/server"
)

const (
	serveWorkload = "ALS"
	servePoll     = 5 * time.Millisecond
	serveBudget   = 120 * time.Second // bounds the schedule if the server wedges
)

// The input grids the served specs are drawn from. Each client takes a
// disjoint, seed-shuffled slice, so no two fresh submissions share a key;
// the grids are sized for a 60-second run.
func freshFactors() []float64 {
	return grid(400, func(i int) float64 { return float64(14000+5*i) / 1e4 })
}
func sweepFactors() []float64 { return grid(200, func(i int) float64 { return float64(1600+i) / 1e3 }) }
func tableThreads() []int     { return grid(120, func(i int) int { return 9 + i }) }

func grid[T any](n int, at func(int) T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = at(i)
	}
	return out
}

func fig14Spec(f float64) server.JobSpec {
	return server.JobSpec{Experiment: "fig14", Workloads: []string{serveWorkload}, HeapFactor: f, Parallelism: -1}
}

func tableSpec(threads int) server.JobSpec {
	return server.JobSpec{Experiment: "table3", Threads: threads}
}

// specKey names a served spec in the serve oracle.
func specKey(sp server.JobSpec) string {
	return fmt.Sprintf("%s/%s/f%.4f/t%d", sp.Experiment, strings.Join(sp.Workloads, ","), sp.HeapFactor, sp.Threads)
}

// serveCfg is an in-process charond under a closed loop of clients.
type serveCfg struct {
	clients, workers, setups int
	// Per client: fresh fig14 jobs, resubmits of its own finished jobs,
	// table3 jobs (admission only, no simulation) and sweeps of three
	// fresh factors plus one finished one.
	fresh, repeats, admin, sweeps int
	seed                          int64
	oracle                        oracle
}

type opKind int

const (
	opFresh opKind = iota
	opRepeat
	opAdmin
	opSweep
)

type op struct {
	kind  opKind
	spec  server.JobSpec   // fresh, repeat and admin
	sweep server.SweepSpec // sweep
}

// plans generates each client's operation list up front, from the seed
// and the client's index alone: no state is shared between clients while
// they run.
func (c serveCfg) plans() [][]op {
	perm := func(n int, salt int64) []int { return rand.New(rand.NewSource(c.seed*7919 + salt)).Perm(n) }
	fresh, sweep, threads := freshFactors(), sweepFactors(), tableThreads()
	fp, sp, tp := perm(len(fresh), 1), perm(len(sweep), 2), perm(len(threads), 3)
	plans := make([][]op, c.clients)
	for cl := range plans {
		rng := rand.New(rand.NewSource(c.seed*7919 + 100 + int64(cl)))
		var kinds []opKind
		for k, n := range []int{opFresh: c.fresh, opRepeat: c.repeats, opAdmin: c.admin, opSweep: c.sweeps} {
			for i := 0; i < n; i++ {
				kinds = append(kinds, opKind(k))
			}
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for i, k := range kinds { // resubmits and sweeps need a finished job
			if k == opFresh {
				kinds[0], kinds[i] = kinds[i], kinds[0]
				break
			}
		}
		var done []server.JobSpec
		nf, ns, na := cl*c.fresh, cl*3*c.sweeps, cl*c.admin
		for _, k := range kinds {
			o := op{kind: k}
			switch k {
			case opFresh:
				o.spec = fig14Spec(fresh[fp[nf]])
				nf++
				done = append(done, o.spec)
			case opRepeat:
				o.spec = done[rng.Intn(len(done))]
			case opAdmin:
				o.spec = tableSpec(threads[tp[na]])
				na++
			case opSweep:
				fs := []float64{sweep[sp[ns]], sweep[sp[ns+1]], sweep[sp[ns+2]], done[rng.Intn(len(done))].HeapFactor}
				ns += 3
				o.sweep = server.SweepSpec{Experiments: []string{"fig14"}, Workloads: []string{serveWorkload},
					HeapFactors: fs, Parallelism: -1}
			}
			plans[cl] = append(plans[cl], o)
		}
	}
	return plans
}

// jobView and sweepView are the fields of charond's status documents the
// benchmark reads.
type jobView struct {
	ID       string `json:"id"`
	Created  string `json:"created"`
	Started  string `json:"started"`
	Finished string `json:"finished"`
}

type sweepView struct {
	ID       string `json:"id"`
	Children []struct {
		ID string `json:"id"`
	} `json:"children"`
}

// opLog is one executed operation.
type opLog struct {
	op
	verdict
	submit, latency float64 // seconds from the POST: its response, and the 200 result
	scale           float64 // reference host seconds per measured second, over the operation
	id              string
	children        []string // sweep child ids, grid order
	body            []byte   // sweep result, checked after the run
}

// booted is one running charond behind a loopback HTTP listener.
type booted struct {
	dir string
	srv *server.Server
	ts  *httptest.Server
}

func boot(workers int) (*booted, error) {
	dir, err := os.MkdirTemp("", "charond-")
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Config{Workers: workers, CacheDir: dir})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	b := &booted{dir: dir, srv: srv, ts: httptest.NewServer(srv.Handler())}
	resp, err := http.Get(b.ts.URL + "/readyz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("/readyz answered %s", resp.Status)
		}
	}
	if err != nil {
		b.stop()
		return nil, err
	}
	return b, nil
}

func (b *booted) stop() {
	b.ts.Close()
	b.srv.Close()
	os.RemoveAll(b.dir)
}

// run sets up by booting charond over a fresh cache directory, then runs
// the clients against the last server booted.
func (c serveCfg) run(_ bool, tr *tracer) (outcome, error) {
	out := outcome{layer: map[string]float64{}}
	var boots []*booted
	defer func() {
		for _, b := range boots {
			b.stop()
		}
	}()
	err := setUp(c.setups, tr, &out, func(int) error {
		b, err := boot(c.workers)
		if err == nil {
			boots = append(boots, b)
		}
		return err
	})
	if err != nil {
		return out, fmt.Errorf("serve: boot: %w", err)
	}

	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer transport.CloseIdleConnections()
	cl := &client{base: boots[len(boots)-1].ts.URL, hc: &http.Client{Transport: transport, Timeout: 30 * time.Second}, tr: tr}
	ctx, cancel := context.WithTimeout(context.Background(), serveBudget)
	defer cancel()

	plans := c.plans()
	runs := make([]clientRun, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runs[i] = cl.runPlan(ctx, plans[i], c.oracle)
		}(i)
	}
	wg.Wait()
	for _, r := range runs {
		out.wall, out.rawWall = max(out.wall, r.busy), max(out.rawWall, r.rawBusy)
	}
	return out, cl.settle(ctx, runs, c.oracle, &out)
}

type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

// clientRun is one client's executed plan: its operations and the
// seconds they took together, at reference host speed and as measured.
type clientRun struct {
	logs          []opLog
	busy, rawBusy float64
}

var opNames = map[opKind]string{opFresh: "job", opRepeat: "repeat", opAdmin: "admin", opSweep: "sweep"}

// runPlan executes one client's operations in a closed loop: each starts
// when the previous one's result has arrived and the reference loop has
// run.
func (c *client) runPlan(ctx context.Context, ops []op, o oracle) clientRun {
	first := map[string]string{} // spec key -> digest of its first result
	clock := newHostClock()
	var r clientRun
	for _, p := range ops {
		l := opLog{op: p, verdict: failed}
		id := c.tr.begin(opNames[p.kind], 0)
		clock.start()
		start := time.Now()
		var err error
		if p.kind == opSweep {
			err = c.doSweep(ctx, &l, start)
		} else {
			err = c.doJob(ctx, &l, start, first, o)
		}
		d, raw := clock.stop()
		c.tr.end(id)
		l.scale = ratio(d, raw)
		r.busy, r.rawBusy = r.busy+d, r.rawBusy+raw
		if err != nil {
			fmt.Fprintf(os.Stderr, "serve: %s: %v\n", opNames[p.kind], err)
		}
		r.logs = append(r.logs, l)
	}
	return r
}

func (c *client) doJob(ctx context.Context, l *opLog, start time.Time, first map[string]string, o oracle) error {
	want := http.StatusAccepted
	if l.kind == opRepeat {
		want = http.StatusOK
	}
	var v jobView
	if err := c.post(ctx, "/v1/jobs", l.spec, want, &v); err != nil {
		return err
	}
	l.submit = time.Since(start).Seconds()
	l.id = v.ID
	body, err := c.result(ctx, "/v1/jobs/"+v.ID+"/result")
	if err != nil {
		return err
	}
	l.latency = time.Since(start).Seconds()
	key, d := specKey(l.spec), digest(body)
	l.verdict = o.verify(key, d)
	if prev, ok := first[key]; ok && prev != d {
		l.verdict = failed
		return fmt.Errorf("resubmitted %s answered differently", key)
	}
	first[key] = d
	return nil
}

func (c *client) doSweep(ctx context.Context, l *opLog, start time.Time) error {
	var v sweepView
	if err := c.post(ctx, "/v1/sweeps", l.sweep, http.StatusAccepted, &v); err != nil {
		return err
	}
	l.submit = time.Since(start).Seconds()
	body, err := c.result(ctx, "/v1/sweeps/"+v.ID+"/result")
	if err != nil {
		return err
	}
	l.latency = time.Since(start).Seconds()
	l.id, l.body = v.ID, body
	for _, ch := range v.Children {
		l.children = append(l.children, ch.ID)
	}
	l.verdict = passed // settled once the children's results are checked
	return nil
}

func (c *client) post(ctx context.Context, path string, body any, want int, v any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	status, resp, err := c.do(req)
	if err != nil {
		return err
	}
	if status != want {
		return fmt.Errorf("POST %s: status %d, want %d: %s", path, status, want, resp)
	}
	return json.Unmarshal(resp, v)
}

// result polls a result endpoint until it answers 200.
func (c *client) result(ctx context.Context, path string) ([]byte, error) {
	for {
		status, body, err := c.get(ctx, path)
		if err != nil {
			return nil, err
		}
		switch status {
		case http.StatusOK:
			return body, nil
		case http.StatusAccepted:
		default:
			return nil, fmt.Errorf("GET %s: status %d: %s", path, status, body)
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(servePoll):
		}
	}
}

func (c *client) get(ctx context.Context, path string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// settle checks what could only be checked after the run (each sweep
// against its children's results), reads every fresh job's server-side
// phases and the server's counters, and fills the tally and per-layer
// values. Times are in ms at reference host speed, each scaled as its
// operation was.
func (c *client) settle(ctx context.Context, cruns []clientRun, o oracle, out *outcome) error {
	lat := map[opKind][]float64{}
	var submits, waits, runs, overheads []float64
	submissions := 0.0
	for _, cr := range cruns {
		for i := range cr.logs {
			l := &cr.logs[i]
			ms := 1e3 * l.scale
			if l.kind == opSweep {
				submissions += float64(len(l.sweep.HeapFactors))
				if l.verdict == passed {
					l.verdict = c.checkSweep(ctx, l, o)
				}
			} else {
				submissions++
			}
			out.add(l.verdict)
			if l.verdict == failed {
				continue
			}
			lat[l.kind] = append(lat[l.kind], l.latency*ms)
			if l.kind != opFresh {
				continue
			}
			submits = append(submits, l.submit*ms)
			w, r, err := c.phases(ctx, l.id)
			if err != nil {
				return err
			}
			waits, runs = append(waits, w*ms), append(runs, r*ms)
			overheads = append(overheads, (l.latency-w-r)*ms)
		}
	}
	_, body, err := c.get(ctx, "/v1/metrics")
	if err != nil {
		return err
	}
	var m struct {
		Counters map[string]float64 `json:"counters"`
	}
	if err := json.Unmarshal(body, &m); err != nil {
		return fmt.Errorf("serve: metrics: %w", err)
	}
	n := m.Counters
	for name, v := range map[string]float64{
		"server.job_p50_ms":        median(lat[opFresh]),
		"server.job_p90_ms":        quantile(lat[opFresh], 0.9),
		"server.sweep_p50_ms":      median(lat[opSweep]),
		"server.submit_p50_ms":     median(submits),
		"server.admin_p50_ms":      median(lat[opAdmin]),
		"server.admin_p90_ms":      quantile(lat[opAdmin], 0.9),
		"server.repeat_p50_ms":     median(lat[opRepeat]),
		"server.queue_wait_p50_ms": median(waits),
		"server.queue_wait_p90_ms": quantile(waits, 0.9),
		"server.run_p50_ms":        median(runs),
		"server.overhead_p50_ms":   median(overheads),
		"server.jobs_completed":    n["server/jobs_completed"],
		"server.cache_hits":        n["server/cache_hits"],
		"server.dedup_hits":        n["server/dedup_hits"],
		"server.sweep_child_dedup": n["server/sweep_child_dedup"],
		"server.jobs_retried":      n["server/jobs_retried"],
		"server.rejected":          n["server/queue_rejected"] + n["server/shed_rejected"] + n["server/deadline_expired_rejects"],
		"server.reuse_ratio":       ratio(n["server/cache_hits"]+n["server/dedup_hits"], submissions),
	} {
		out.layer[name] = v
	}
	return nil
}

// checkSweep verifies each child's result against the oracle and the
// sweep's combined result against the concatenation of the children's.
func (c *client) checkSweep(ctx context.Context, l *opLog, o oracle) verdict {
	if len(l.children) != len(l.sweep.HeapFactors) {
		return failed
	}
	v := passed
	var concat []byte
	for i, id := range l.children {
		status, body, err := c.get(ctx, "/v1/jobs/"+id+"/result")
		if err != nil || status != http.StatusOK {
			return failed
		}
		v = max(v, o.verify(specKey(fig14Spec(l.sweep.HeapFactors[i])), digest(body)))
		concat = append(concat, body...)
	}
	if !bytes.Equal(concat, l.body) {
		return failed
	}
	return v
}

// phases reads a job's queue wait and run time, in seconds, from the
// created, started and finished stamps of its status document.
func (c *client) phases(ctx context.Context, id string) (wait, run float64, err error) {
	_, body, err := c.get(ctx, "/v1/jobs/"+id)
	if err != nil {
		return 0, 0, err
	}
	var v jobView
	if err := json.Unmarshal(body, &v); err != nil {
		return 0, 0, err
	}
	var ts [3]time.Time
	for i, s := range []string{v.Created, v.Started, v.Finished} {
		if ts[i], err = time.Parse(time.RFC3339Nano, s); err != nil {
			return 0, 0, fmt.Errorf("job %s: %w", id, err)
		}
	}
	return ts[1].Sub(ts[0]).Seconds(), ts[2].Sub(ts[1]).Seconds(), nil
}
