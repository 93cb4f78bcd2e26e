package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"charonsim"
	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
	"charonsim/internal/cli"
)

// newTestServer builds a server plus an httptest front-end and registers
// cleanup. The returned base URL has no trailing slash.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		s.Close()
	})
	return s, hs.URL
}

func postJob(t *testing.T, base, body string) (*http.Response, view) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v view
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &v)
	return resp, v
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if out != nil {
		_ = json.Unmarshal(raw, out)
	}
	return resp
}

// waitState polls a job until it reaches want (or fails the test).
func waitState(t *testing.T, base, id, want string) view {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v view
		resp := getJSON(t, base+"/v1/jobs/"+id, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET job %s = %d", id, resp.StatusCode)
		}
		if v.State == want {
			return v
		}
		if terminal(v.State) || time.Now().After(deadline) {
			t.Fatalf("job %s state %q (error %q), want %q", id, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}

func TestJobKeyCanonicalization(t *testing.T) {
	base := JobSpec{Experiment: "fig12", Workloads: []string{"BS", "KM"}}
	_, baseKey, err := base.Resolve()
	if err != nil {
		t.Fatal(err)
	}

	same := []JobSpec{
		{Experiment: "fig12", Workloads: []string{"BS", "KM"}},
		{Experiment: "fig12", Workloads: []string{" BS ", "", "KM"}},            // token hygiene
		{Experiment: "fig12", Workloads: []string{"BS", "KM"}, Threads: 8},      // default resolved
		{Experiment: "fig12", Workloads: []string{"BS", "KM"}, HeapFactor: 1.5}, // default resolved
		{Experiment: "fig12", Workloads: []string{"BS", "KM"}, RunTimeout: ""},  // empty duration
	}
	for i, sp := range same {
		_, key, err := sp.Resolve()
		if err != nil {
			t.Fatalf("same[%d]: %v", i, err)
		}
		if key != baseKey {
			t.Errorf("same[%d] key mismatch:\n got %s\nwant %s", i, key, baseKey)
		}
	}

	different := []JobSpec{
		{Experiment: "fig13", Workloads: []string{"BS", "KM"}},
		{Experiment: "fig12", Workloads: []string{"KM", "BS"}}, // order is result order
		{Experiment: "fig12", Workloads: []string{"BS"}},
		{Experiment: "fig12"}, // all six
		{Experiment: "fig12", Workloads: []string{"BS", "KM"}, Threads: 4},
		{Experiment: "fig12", Workloads: []string{"BS", "KM"}, HeapFactor: 2},
		{Experiment: "fig12", Workloads: []string{"BS", "KM"}, Parallelism: 1},
		{Experiment: "fig12", Workloads: []string{"BS", "KM"}, RunTimeout: "5m"},
	}
	seen := map[string]int{baseKey: -1}
	for i, sp := range different {
		_, key, err := sp.Resolve()
		if err != nil {
			t.Fatalf("different[%d]: %v", i, err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("different[%d] collides with case %d: %s", i, prev, key)
		}
		seen[key] = i
	}

	// Journal done records are addressed by this key: its bytes are pinned.
	_, key, err := JobSpec{Experiment: "fig12"}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if want := "job/v5|exp=fig12|threads=8|factor=1.5|wl=BS,KM,LR,CC,PR,ALS|par=0|timeout=0"; key != want {
		t.Errorf("fig12 key = %s\nwant        %s", key, want)
	}

	// Identical spec ⇒ identical job id, and the id is the checkpoint
	// content address of the key.
	if jobID(baseKey) != jobID(baseKey) || len(jobID(baseKey)) != 16 {
		t.Fatalf("jobID not stable/16-hex: %q", jobID(baseKey))
	}
}

func TestResolveRejectsBadSpecs(t *testing.T) {
	bad := []JobSpec{
		{},                                 // no experiment
		{Experiment: "nope"},               // unknown experiment
		{Experiment: "fig12", Threads: -1}, // Config.Validate
		{Experiment: "fig12", Workloads: []string{"XX"}},
		{Experiment: "fig12", RunTimeout: "not-a-duration"},
		{Experiment: "fig12", Workloads: []string{" ", ""}}, // names nothing
	}
	for i, sp := range bad {
		if _, _, err := sp.Resolve(); err == nil {
			t.Errorf("bad[%d] (%+v) resolved without error", i, sp)
		}
	}
}

func TestSubmitValidation(t *testing.T) {
	_, base := newTestServer(t, Config{})
	cases := []struct {
		body string
		want int
	}{
		{`{"experiment":"table4"}`, http.StatusAccepted},
		{`{"experiment":"nope"}`, http.StatusBadRequest},
		{`{}`, http.StatusBadRequest},
		{`not json`, http.StatusBadRequest},
		{`{"experiment":"fig12","bogus_knob":1}`, http.StatusBadRequest}, // unknown fields rejected
		{`{"experiment":"fig12","threads":-2}`, http.StatusBadRequest},
		{`{"experiment":"fig12","run_timeout":"banana"}`, http.StatusBadRequest},
		{`{"experiment":"fig12","workloads":[""]}`, http.StatusBadRequest},
		{`{"experiment":"fig12","offload_deadline":"1ms"}`, http.StatusBadRequest}, // removed knob
		{`{"experiment":"fig12","fault_rate":0.01}`, http.StatusBadRequest},        // removed knob
		{`{"experiment":"table4","heap_factor":10000}`, http.StatusBadRequest},     // heap past the log's address limit
	}
	for _, c := range cases {
		resp, _ := postJob(t, base, c.body)
		if resp.StatusCode != c.want {
			t.Errorf("POST %s = %d, want %d", c.body, resp.StatusCode, c.want)
		}
	}
	// A sweep spec rejects the removed knobs and an out-of-budget heap
	// factor the same way.
	for _, body := range []string{
		`{"experiments":["fig12"],"offload_deadline":"1ms"}`,
		`{"experiments":["fig12"],"fault_seed":7}`,
		`{"experiments":["table4"],"heap_factors":[1.5,10000]}`,
	} {
		if resp, _ := postSweep(t, base, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST sweep %s = %d, want %d", body, resp.StatusCode, http.StatusBadRequest)
		}
	}
}

// gate is a controllable runner: every invocation signals its start, then
// blocks until the gate is opened or the job context is canceled.
type gate struct {
	started chan string
	open    chan struct{}
	runs    atomic.Int64
	result  string
}

func newGate(result string) *gate {
	return &gate{started: make(chan string, 64), open: make(chan struct{}), result: result}
}

func (g *gate) runner(ctx context.Context, exp string, _ charonsim.Config) (string, error) {
	g.runs.Add(1)
	g.started <- exp
	select {
	case <-g.open:
		return g.result, nil
	case <-ctx.Done():
		return "", ctx.Err()
	}
}

// instantRunner finishes every job at once with a fixed report.
func instantRunner(context.Context, string, charonsim.Config) (string, error) {
	return "r\n", nil
}

func TestBackpressure(t *testing.T) {
	g := newGate("report\n")
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 1, runner: g.runner})

	// Job A: picked up by the single worker; wait until it is running so
	// the queue slot is genuinely free for B.
	resp, a := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("A = %d, want 202", resp.StatusCode)
	}
	<-g.started
	waitState(t, base, a.ID, StateRunning)

	// Job B fills the queue's one slot.
	resp, b := postJob(t, base, `{"experiment":"fig12","workloads":["KM"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("B = %d, want 202", resp.StatusCode)
	}

	// Job C: queue full ⇒ 429 with Retry-After.
	resp, _ = postJob(t, base, `{"experiment":"fig12","workloads":["LR"]}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("C = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := s.Metrics().Counter("server/queue_rejected"); got != 1 {
		t.Fatalf("queue_rejected = %v, want 1", got)
	}

	// Drain the queue: let A (then B) finish; C's descriptor is accepted
	// once a slot frees up.
	close(g.open)
	waitState(t, base, a.ID, StateDone)
	waitState(t, base, b.ID, StateDone)
	resp, c := postJob(t, base, `{"experiment":"fig12","workloads":["LR"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("C after drain = %d, want 202", resp.StatusCode)
	}
	waitState(t, base, c.ID, StateDone)
}

func TestCancelMidRun(t *testing.T) {
	g := newGate("never\n")
	_, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	_, v := postJob(t, base, `{"experiment":"fig12"}`)
	<-g.started
	waitState(t, base, v.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", resp.StatusCode)
	}
	got := waitState(t, base, v.ID, StateCanceled)
	if !strings.Contains(got.Error, "canceled by client") {
		t.Fatalf("cancel reason not recorded: %q", got.Error)
	}

	// The result endpoint reports the cancellation.
	rresp := getJSON(t, base+"/v1/jobs/"+v.ID+"/result", nil)
	if rresp.StatusCode != http.StatusGone {
		t.Fatalf("result of canceled job = %d, want 410", rresp.StatusCode)
	}

	// A resubmission after cancellation is a fresh attempt, not a dedup hit.
	resp2, v2 := postJob(t, base, `{"experiment":"fig12"}`)
	if resp2.StatusCode != http.StatusAccepted || v2.ID != v.ID {
		t.Fatalf("resubmit after cancel = %d id %s, want 202 id %s", resp2.StatusCode, v2.ID, v.ID)
	}
	<-g.started
	close(g.open)
	waitState(t, base, v2.ID, StateDone)
}

// TestCancelLosingToCompletionKeepsNoError: a DELETE on a running job
// whose runner ignores its context and then succeeds leaves a done job
// with no error — neither in its status nor in its journal record.
func TestCancelLosingToCompletionKeepsNoError(t *testing.T) {
	cacheDir := t.TempDir()
	started, release := make(chan struct{}), make(chan struct{})
	runner := func(context.Context, string, charonsim.Config) (string, error) {
		close(started)
		<-release
		return "finished anyway\n", nil
	}
	_, base := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: runner})
	_, v := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	<-started
	waitState(t, base, v.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE = %d, want 202", resp.StatusCode)
	}
	close(release)
	if got := waitState(t, base, v.ID, StateDone); got.Error != "" {
		t.Fatalf("done job carries error %q, want none", got.Error)
	}

	jst, err := checkpoint.Open(filepath.Join(cacheDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	_, key, _ := JobSpec{Experiment: "fig12", Workloads: []string{"BS"}}.Resolve()
	var rec journalRecord
	for deadline := time.Now().Add(10 * time.Second); rec.State != StateDone; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("journal record state %q, want %q", rec.State, StateDone)
		}
		if payload, ok := jst.Get(key); ok {
			decodeRecord(payload, &rec)
		}
	}
	if rec.Error != "" {
		t.Fatalf("done journal record carries error %q, want none", rec.Error)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	g := newGate("r\n")
	_, base := newTestServer(t, Config{Workers: 1, QueueDepth: 4, runner: g.runner})
	_, a := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	<-g.started
	waitState(t, base, a.ID, StateRunning)
	_, b := postJob(t, base, `{"experiment":"fig12","workloads":["KM"]}`) // sits in queue

	req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+b.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitState(t, base, b.ID, StateCanceled)

	close(g.open)
	waitState(t, base, a.ID, StateDone)
	// The canceled queued job must never have started.
	if n := g.runs.Load(); n != 1 {
		t.Fatalf("runner invoked %d times, want 1 (canceled queued job must not run)", n)
	}
}

func TestDedupWhileRunningAndCacheHitWhenDone(t *testing.T) {
	g := newGate("the report\n")
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	resp1, v1 := postJob(t, base, `{"experiment":"fig12"}`)
	if resp1.StatusCode != http.StatusAccepted {
		t.Fatalf("first = %d", resp1.StatusCode)
	}
	<-g.started
	// Identical submission while running: same job, 200, no second run.
	resp2, v2 := postJob(t, base, `{"experiment":"fig12"}`)
	if resp2.StatusCode != http.StatusOK || v2.ID != v1.ID {
		t.Fatalf("dedup = %d id %s, want 200 id %s", resp2.StatusCode, v2.ID, v1.ID)
	}

	close(g.open)
	waitState(t, base, v1.ID, StateDone)
	// Identical submission when done: served from the completed job.
	resp3, v3 := postJob(t, base, `{"experiment":"fig12"}`)
	if resp3.StatusCode != http.StatusOK || v3.ID != v1.ID || v3.State != StateDone {
		t.Fatalf("post-done dedup = %d id %s state %s", resp3.StatusCode, v3.ID, v3.State)
	}
	if n := g.runs.Load(); n != 1 {
		t.Fatalf("runner ran %d times for 3 identical submissions, want 1", n)
	}
	if hits := s.Metrics().Counter("server/cache_hits"); hits < 1 {
		t.Fatalf("cache_hits = %v, want >= 1", hits)
	}
	// /v1/metrics surfaces the counters.
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	getJSON(t, base+"/v1/metrics", &snap)
	if snap.Counters["server/cache_hits"] < 1 {
		t.Fatalf("/v1/metrics cache_hits = %v, want >= 1", snap.Counters["server/cache_hits"])
	}
}

// unitStoreMetrics reads the unit store's counters and write-error detail
// from /v1/metrics.
func unitStoreMetrics(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	var m struct {
		Counters map[string]float64 `json:"counters"`
		Errors   map[string]string  `json:"errors"`
	}
	getJSON(t, base+"/v1/metrics", &m)
	return m.Counters, m.Errors["server/unit_store/last_write_error"]
}

// runReport submits one job, waits for it and returns its report.
func runReport(t *testing.T, base, body string) string {
	t.Helper()
	_, v := postJob(t, base, body)
	waitState(t, base, v.ID, StateDone)
	return fetchResult(t, base, v.ID)
}

// TestJobsShareTheServerUnitStore: every job replays through the server's
// one per-unit store, so /v1/metrics counts its traffic. fig12 misses and
// persists ALS's replay units; fig13 replays the same units and hits.
func TestJobsShareTheServerUnitStore(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	runReport(t, base, `{"experiment":"fig12","workloads":["ALS"]}`)
	runReport(t, base, `{"experiment":"fig13","workloads":["ALS"]}`)
	c, _ := unitStoreMetrics(t, base)
	if c["server/unit_store/misses"] == 0 || c["server/unit_store/hits"] == 0 {
		t.Fatalf("unit_store misses = %v, hits = %v; want both > 0",
			c["server/unit_store/misses"], c["server/unit_store/hits"])
	}
	if c["server/unit_store/entries"] == 0 {
		t.Fatal("unit_store holds no entries after two simulated jobs")
	}
}

// TestUnitStoreWritesGoThroughServerFS: unit checkpoints are written
// through the server's filesystem, so a full disk shows in the unit
// store's write_errors and error detail — and costs the job nothing: its
// report equals a clean server's byte for byte.
func TestUnitStoreWritesGoThroughServerFS(t *testing.T) {
	const body = `{"experiment":"fig12","workloads":["ALS"]}`
	_, clean := newTestServer(t, Config{Workers: 1, CacheDir: t.TempDir()})
	want := runReport(t, clean, body)

	cfg := Config{Workers: 1, CacheDir: t.TempDir()}
	cfg.fsys = &atomicio.FailFS{Fail: atomicio.FailWrite}
	_, full := newTestServer(t, cfg)
	if got := runReport(t, full, body); got != want {
		t.Fatalf("report under unit-store write errors differs from a clean server's:\n-- got --\n%s\n-- want --\n%s", got, want)
	}
	c, detail := unitStoreMetrics(t, full)
	if c["server/unit_store/write_errors"] == 0 || detail == "" {
		t.Fatalf("unit_store write_errors = %v, last_write_error = %q; want both set",
			c["server/unit_store/write_errors"], detail)
	}
}

func TestWarmRestartServesFromDiskCache(t *testing.T) {
	cacheDir := t.TempDir()
	g1 := newGate("expensive result\n")
	close(g1.open) // run immediately
	s1, base1 := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: g1.runner})
	_, v1 := postJob(t, base1, `{"experiment":"fig12"}`)
	waitState(t, base1, v1.ID, StateDone)
	if err := drainWithin(s1, time.Second); err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh server over the same cache directory. The runner
	// must never fire; the response comes off disk byte-identically.
	g2 := newGate("WRONG — recomputed\n")
	close(g2.open)
	_, base2 := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: g2.runner})
	resp, v2 := postJob(t, base2, `{"experiment":"fig12"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm submit = %d, want 200", resp.StatusCode)
	}
	if !v2.Cached || v2.State != StateDone {
		t.Fatalf("warm job = cached %v state %s, want cached done", v2.Cached, v2.State)
	}
	body := fetchResult(t, base2, v2.ID)
	if body != "expensive result\n" {
		t.Fatalf("warm result = %q, want the originally computed bytes", body)
	}
	if g2.runs.Load() != 0 {
		t.Fatal("warm restart recomputed instead of serving the disk cache")
	}
}

func fetchResult(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result = %d: %s", resp.StatusCode, raw)
	}
	return string(raw)
}

func drainWithin(s *Server, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return s.Drain(ctx)
}

func TestDrainWaitsForRunningJobs(t *testing.T) {
	g := newGate("finished during drain\n")
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})
	_, v := postJob(t, base, `{"experiment":"fig12"}`)
	<-g.started

	drained := make(chan error, 1)
	go func() { drained <- drainWithin(s, 30*time.Second) }()

	// While draining: reads still work, new work is refused with 503.
	waitState(t, base, v.ID, StateRunning)
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp := getJSON(t, base+"/readyz", nil)
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported draining")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, _ := postJob(t, base, `{"experiment":"fig13"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain = %d, want 503", resp.StatusCode)
	}

	close(g.open)
	if err := <-drained; err != nil {
		t.Fatalf("drain = %v, want nil (job finished in time)", err)
	}
	got := waitState(t, base, v.ID, StateDone)
	if got.State != StateDone {
		t.Fatalf("job after clean drain = %s", got.State)
	}
}

func TestDrainDeadlineCancelsInFlight(t *testing.T) {
	g := newGate("never finishes\n") // gate never opens
	s, base := newTestServer(t, Config{Workers: 1, runner: g.runner})
	_, v := postJob(t, base, `{"experiment":"fig12"}`)
	<-g.started
	waitState(t, base, v.ID, StateRunning)

	if err := drainWithin(s, 50*time.Millisecond); err == nil {
		t.Fatal("drain with a wedged job returned nil, want deadline error")
	}
	got := waitState(t, base, v.ID, StateCanceled)
	if !strings.Contains(got.Error, "drain deadline") {
		t.Fatalf("drain-canceled job error = %q, want drain-deadline reason", got.Error)
	}
}

// TestServedReportMatchesCLI is the in-process byte-identity gate
// (internal/e2e's TestServeE2E repeats it against a charond process):
// the same experiment through the HTTP API and through the CLI produce
// identical bytes, and the cached re-serve is identical again.
func TestServedReportMatchesCLI(t *testing.T) {
	cacheDir := t.TempDir()
	_, base := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir})

	// table4 is render-only, so this stays fast while exercising the full
	// real-runner path.
	resp, v := postJob(t, base, `{"experiment":"table4"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	waitState(t, base, v.ID, StateDone)
	served := fetchResult(t, base, v.ID)

	var cliOut, cliErr bytes.Buffer
	if code := cli.Run([]string{"-exp", "table4"}, &cliOut, &cliErr); code != 0 {
		t.Fatalf("CLI exited %d: %s", code, cliErr.String())
	}
	want := stripTrailer(cliOut.String())
	if served != want {
		t.Fatalf("served report diverged from CLI:\n--- served ---\n%q\n--- cli ---\n%q", served, want)
	}

	// Fresh server over the same cache: the disk-cached bytes must equal
	// the freshly-computed ones (graceful-drain reuse path).
	_, base2 := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir})
	resp2, v2 := postJob(t, base2, `{"experiment":"table4"}`)
	if resp2.StatusCode != http.StatusOK || !v2.Cached {
		t.Fatalf("warm submit = %d cached %v, want 200 cached", resp2.StatusCode, v2.Cached)
	}
	if got := fetchResult(t, base2, v2.ID); got != want {
		t.Fatalf("cached report diverged from freshly computed:\n%q\nvs\n%q", got, want)
	}
}

// stripTrailer removes the CLI's wall-clock trailer line, its only
// non-deterministic output.
func stripTrailer(s string) string {
	lines := strings.Split(s, "\n")
	var keep []string
	for _, l := range lines {
		if strings.HasPrefix(l, "(") && strings.Contains(l, "experiment(s) in") {
			continue
		}
		keep = append(keep, l)
	}
	return strings.Join(keep, "\n")
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	_, base := newTestServer(t, Config{})
	if resp := getJSON(t, base+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d", resp.StatusCode)
	}
	var snap struct {
		Counters map[string]float64 `json:"counters"`
	}
	if resp := getJSON(t, base+"/v1/metrics", &snap); resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics = %d", resp.StatusCode)
	}
	if _, ok := snap.Counters["server/jobs_tracked"]; !ok {
		t.Fatalf("metrics missing server/jobs_tracked: %v", snap.Counters)
	}
}

func TestUnknownJobIs404(t *testing.T) {
	_, base := newTestServer(t, Config{})
	for _, url := range []string{base + "/v1/jobs/deadbeef", base + "/v1/jobs/deadbeef/result"} {
		if resp := getJSON(t, url, nil); resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s = %d, want 404", url, resp.StatusCode)
		}
	}
}

func TestResultWhileRunningIs202(t *testing.T) {
	g := newGate("r\n")
	_, base := newTestServer(t, Config{Workers: 1, runner: g.runner})
	_, v := postJob(t, base, `{"experiment":"fig12"}`)
	<-g.started
	waitState(t, base, v.ID, StateRunning)
	resp := getJSON(t, base+"/v1/jobs/"+v.ID+"/result", nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("result while running = %d, want 202", resp.StatusCode)
	}
	close(g.open)
	waitState(t, base, v.ID, StateDone)
}

func TestFailedJobSurfacesError(t *testing.T) {
	failing := func(ctx context.Context, exp string, _ charonsim.Config) (string, error) {
		return "", fmt.Errorf("synthetic failure")
	}
	_, base := newTestServer(t, Config{Workers: 1, runner: failing})
	_, v := postJob(t, base, `{"experiment":"fig12"}`)
	got := waitState(t, base, v.ID, StateFailed)
	if !strings.Contains(got.Error, "synthetic failure") {
		t.Fatalf("failure not surfaced: %q", got.Error)
	}
	var body struct {
		Error string `json:"error"`
	}
	resp := getJSON(t, base+"/v1/jobs/"+v.ID+"/result", &body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("result of failed job = %d, want 500", resp.StatusCode)
	}
	if want := "job " + v.ID + " (fig12) failed: synthetic failure"; body.Error != want {
		t.Fatalf("failure body = %q, want %q", body.Error, want)
	}
}
