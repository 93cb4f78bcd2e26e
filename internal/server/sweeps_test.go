package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"charonsim"
	"charonsim/internal/cli"
)

func postSweep(t *testing.T, base, body string) (*http.Response, sweepView) {
	t.Helper()
	resp, err := http.Post(base+"/v1/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v sweepView
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &v)
	return resp, v
}

// waitSweepState polls a sweep until it reaches want (or fails the test).
func waitSweepState(t *testing.T, base, id, want string) sweepView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v sweepView
		resp := getJSON(t, base+"/v1/sweeps/"+id, &v)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET sweep %s = %d", id, resp.StatusCode)
		}
		if v.State == want {
			return v
		}
		if terminal(v.State) || time.Now().After(deadline) {
			t.Fatalf("sweep %s state %q (counts %v), want %q", id, v.State, v.Counts, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fetchSweepResult(t *testing.T, base, id string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/sweeps/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET sweep result = %d: %s", resp.StatusCode, raw)
	}
	return string(raw)
}

func TestSweepExpansion(t *testing.T) {
	// Grid order is experiments, then workloads, then heap factors, then
	// threads — outermost to innermost — and each child is the same job
	// (same canonical key) an individual submission would create.
	spec := SweepSpec{
		Experiments: []string{"fig12", "fig13"},
		Workloads:   []string{"BS", "KM"},
		HeapFactors: []float64{1.2, 1.5},
		Threads:     []int{4},
	}
	children, key, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(children) != 8 {
		t.Fatalf("children = %d, want 8", len(children))
	}
	var got []string
	for _, c := range children {
		got = append(got, fmt.Sprintf("%s/%s/%.1f", c.spec.Experiment, strings.Join(c.spec.Workloads, ","), c.spec.HeapFactor))
	}
	want := []string{
		"fig12/BS/1.2", "fig12/BS/1.5", "fig12/KM/1.2", "fig12/KM/1.5",
		"fig13/BS/1.2", "fig13/BS/1.5", "fig13/KM/1.2", "fig13/KM/1.5",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("grid order[%d] = %s, want %s (full: %v)", i, got[i], want[i], got)
		}
	}
	// The child key matches an individually resolved job.
	single := JobSpec{Experiment: "fig12", Workloads: []string{"BS"}, HeapFactor: 1.2, Threads: 4}
	_, singleKey, err := single.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	if children[0].key != singleKey {
		t.Fatalf("child key %q != individual job key %q", children[0].key, singleKey)
	}

	// Same grid, same sweep key; different grid, different key.
	_, key2, err := spec.Expand()
	if err != nil || key2 != key {
		t.Fatalf("re-expansion key mismatch: %q vs %q (err %v)", key2, key, err)
	}
	spec2 := spec
	spec2.Threads = []int{8}
	if _, key3, _ := spec2.Expand(); key3 == key {
		t.Fatal("different grid produced the same sweep key")
	}

	// Empty axes collapse to one default grid point each.
	minimal := SweepSpec{Experiments: []string{"fig12"}}
	ch, _, err := minimal.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(ch) != 1 || ch[0].spec.Workloads != nil {
		t.Fatalf("minimal sweep = %d children (workloads %v), want 1 child over the default workload set",
			len(ch), ch[0].spec.Workloads)
	}

	bad := []SweepSpec{
		{},                                       // no experiments
		{Experiments: []string{"no-such"}},       // unknown experiment
		{Experiments: []string{"fig12", "fig12"}}, // duplicate grid point
		{Experiments: []string{"fig12"}, Workloads: []string{" ", ""}}, // vacuous workloads
		{Experiments: []string{"fig12"}, HeapFactors: []float64{-3}},   // invalid knob
	}
	for i, sp := range bad {
		if _, _, err := sp.Expand(); err == nil {
			t.Errorf("bad[%d] expanded without error", i)
		}
	}

	// The child-count bound rejects oversized grids whole.
	huge := SweepSpec{Experiments: []string{"fig12"}, Threads: make([]int, 0, maxSweepChildren+1)}
	for i := 0; i <= maxSweepChildren; i++ {
		huge.Threads = append(huge.Threads, i+1)
	}
	if _, _, err := huge.Expand(); err == nil || !strings.Contains(err.Error(), "bound") {
		t.Fatalf("oversized grid error = %v, want child-count bound", err)
	}
}

func TestSweepEndToEndAndDedup(t *testing.T) {
	g := newGate("report\n")
	close(g.open) // free-running
	s, base := newTestServer(t, Config{Workers: 2, runner: g.runner})

	resp, sw := postSweep(t, base, `{"experiments":["fig12","fig13"],"workloads":["BS","KM"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if sw.Total != 4 || len(sw.Children) != 4 {
		t.Fatalf("total = %d children = %d, want 4", sw.Total, len(sw.Children))
	}
	if resp.Header.Get("Location") != "/v1/sweeps/"+sw.ID {
		t.Fatalf("Location = %q", resp.Header.Get("Location"))
	}
	done := waitSweepState(t, base, sw.ID, StateDone)
	if done.Counts[StateDone] != 4 {
		t.Fatalf("done count = %d, want 4", done.Counts[StateDone])
	}
	text := fetchSweepResult(t, base, sw.ID)
	if text != strings.Repeat("report\n", 4) {
		t.Fatalf("combined result = %q", text)
	}
	if runs := g.runs.Load(); runs != 4 {
		t.Fatalf("runner invocations = %d, want 4", runs)
	}

	// Duplicate submission is the same sweep: 200, same id, and zero new
	// runner invocations — every child answer comes from dedup/cache.
	resp2, sw2 := postSweep(t, base, `{"experiments":["fig12","fig13"],"workloads":["BS","KM"]}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit = %d, want 200", resp2.StatusCode)
	}
	if sw2.ID != sw.ID {
		t.Fatalf("duplicate sweep id %q != %q", sw2.ID, sw.ID)
	}
	if runs := g.runs.Load(); runs != 4 {
		t.Fatalf("runner invocations after duplicate = %d, want 4 (no re-runs)", runs)
	}
	if n := s.Metrics().Counter("server/sweep_dedup_hits"); n != 1 {
		t.Fatalf("sweep_dedup_hits = %v, want 1", n)
	}

	// An overlapping sweep (2 shared grid points, 2 new) only runs the
	// new children; the shared ones ride the job-level single-flight
	// dedup. It is born terminal only after its fresh children finish.
	resp3, sw3 := postSweep(t, base, `{"experiments":["fig12","fig13"],"workloads":["BS","LR"]}`)
	if resp3.StatusCode != http.StatusAccepted {
		t.Fatalf("overlapping submit = %d, want 202", resp3.StatusCode)
	}
	if sw3.ID == sw.ID {
		t.Fatal("overlapping sweep deduplicated onto a different grid")
	}
	waitSweepState(t, base, sw3.ID, StateDone)
	if runs := g.runs.Load(); runs != 6 {
		t.Fatalf("runner invocations after overlap = %d, want 6 (2 new children only)", runs)
	}
}

// TestSweepResultMatchesCLI pins the byte-identity guarantee end to end
// with the real runner: the combined sweep report equals the
// concatenation of the equivalent charonsim CLI runs (minus the CLI's
// wall-clock trailer), in grid order.
func TestSweepResultMatchesCLI(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 2})

	resp, sw := postSweep(t, base, `{"experiments":["table3","table4"],"workloads":["BS"]}`)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit = %d", resp.StatusCode)
	}
	waitSweepState(t, base, sw.ID, StateDone)
	got := fetchSweepResult(t, base, sw.ID)

	var want strings.Builder
	for _, exp := range []string{"table3", "table4"} {
		var cliOut, cliErr bytes.Buffer
		if code := cli.Run([]string{"-exp", exp, "-workloads", "BS"}, &cliOut, &cliErr); code != 0 {
			t.Fatalf("CLI run %s exited %d: %s", exp, code, cliErr.String())
		}
		want.WriteString(stripTrailer(cliOut.String()))
	}
	if got != want.String() {
		t.Fatalf("sweep bytes != CLI bytes\n-- sweep --\n%s\n-- cli --\n%s", got, want.String())
	}
}

func TestSweepFailureAggregation(t *testing.T) {
	failing := func(ctx context.Context, exp string, cfg charonsim.Config) (string, error) {
		if exp == "fig13" {
			return "", fmt.Errorf("synthetic child failure")
		}
		return "ok\n", nil
	}
	_, base := newTestServer(t, Config{Workers: 1, RetryBudget: -1, runner: failing})

	_, sw := postSweep(t, base, `{"experiments":["fig12","fig13"],"workloads":["BS"]}`)
	v := waitSweepState(t, base, sw.ID, StateFailed)
	if v.Counts[StateFailed] != 1 || v.Counts[StateDone] != 1 {
		t.Fatalf("counts = %v, want 1 failed + 1 done", v.Counts)
	}

	resp, err := http.Get(base + "/v1/sweeps/" + sw.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed sweep result = %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(raw), "synthetic child failure") {
		t.Fatalf("failure body %q does not name the child error", raw)
	}
}

func TestSweepResultWhilePendingIs202(t *testing.T) {
	g := newGate("later\n")
	_, base := newTestServer(t, Config{Workers: 1, runner: g.runner})

	_, sw := postSweep(t, base, `{"experiments":["fig12","fig13"],"workloads":["BS"]}`)
	<-g.started // one child running, one queued
	resp, err := http.Get(base + "/v1/sweeps/" + sw.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("pending sweep result = %d, want 202", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("202 without Retry-After")
	}
	close(g.open)
	waitSweepState(t, base, sw.ID, StateDone)
}

func TestUnknownSweepIs404(t *testing.T) {
	_, base := newTestServer(t, Config{})
	resp := getJSON(t, base+"/v1/sweeps/doesnotexist", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestSweepRecoveryAfterCrash: a sweep whose manifest was journaled
// survives an unclean death — the next boot over the same cache
// directory re-expands the manifest, reattaches the replayed children
// under their original ids, and runs the sweep to completion without any
// client resubmission.
func TestSweepRecoveryAfterCrash(t *testing.T) {
	cacheDir := t.TempDir()

	// Process A: the first child starts running (blocked in the gate),
	// the second waits in the queue; then the process "dies" (no drain,
	// no journal cleanup).
	gA := newGate("never\n")
	_, baseA := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: gA.runner})
	_, swA := postSweep(t, baseA, `{"experiments":["fig12","fig13"],"workloads":["BS"]}`)
	<-gA.started
	var childIDsA []string
	for _, c := range swA.Children {
		childIDsA = append(childIDsA, c.ID)
	}

	// Process B boots over the same directory: the sweep manifest and
	// both unfinished children replay.
	gB := newGate("recovered\n")
	close(gB.open)
	sB, baseB := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: gB.runner})
	if n := sB.Metrics().Counter("server/sweeps_recovered"); n != 1 {
		t.Fatalf("sweeps_recovered = %v, want 1", n)
	}

	var swB sweepView
	if resp := getJSON(t, baseB+"/v1/sweeps/"+swA.ID, &swB); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered sweep GET = %d, want 200", resp.StatusCode)
	}
	if swB.Recovered != 1 {
		t.Fatalf("recovered generation = %d, want 1", swB.Recovered)
	}
	for i, c := range swB.Children {
		if c.ID != childIDsA[i] {
			t.Fatalf("child[%d] id changed across crash: %q vs %q", i, c.ID, childIDsA[i])
		}
	}
	waitSweepState(t, baseB, swA.ID, StateDone)
	if text := fetchSweepResult(t, baseB, swA.ID); text != "recovered\nrecovered\n" {
		t.Fatalf("recovered combined result = %q", text)
	}
}

// TestPollRetryAfterPositionAware pins satellite fix 2: a queued job's
// Retry-After reflects its own queue position, not the full queue.
func TestPollRetryAfterPositionAware(t *testing.T) {
	g := newGate("slow\n")
	s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 8, runner: g.runner})
	s.avgRunNanos.Store(int64(10 * time.Second)) // 10s per job, 1 worker

	_, _ = postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	<-g.started // running; the queue is empty again
	_, b := postJob(t, base, `{"experiment":"fig12","workloads":["KM"]}`)
	_, c := postJob(t, base, `{"experiment":"fig12","workloads":["LR"]}`)
	_, d := postJob(t, base, `{"experiment":"fig12","workloads":["PR"]}`)

	ra := func(v view) int {
		s.mu.Lock()
		j := s.jobs[v.ID]
		s.mu.Unlock()
		return s.pollRetryAfter(j)
	}
	if got := ra(b); got != 10 {
		t.Fatalf("head-of-queue Retry-After = %d, want 10 (one job ahead of completion)", got)
	}
	if got := ra(c); got != 20 {
		t.Fatalf("mid-queue Retry-After = %d, want 20", got)
	}
	if got := ra(d); got != 30 {
		t.Fatalf("tail Retry-After = %d, want 30", got)
	}
	close(g.open)
}

// TestEvictionPrefersFetchedResults pins satellite fix 3: retention
// pressure evicts terminal jobs whose result was already delivered
// before older jobs still holding an unread answer.
func TestEvictionPrefersFetchedResults(t *testing.T) {
	_, base := newTestServer(t, Config{Workers: 1, MaxJobs: 2, runner: instantRunner})

	// unread finishes first (older), fetched second (newer, result read).
	_, unread := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	waitState(t, base, unread.ID, StateDone)
	_, fetched := postJob(t, base, `{"experiment":"fig12","workloads":["KM"]}`)
	waitState(t, base, fetched.ID, StateDone)
	fetchResult(t, base, fetched.ID)

	// A third insert forces one eviction: the fetched job must go, even
	// though the unread one is older.
	_, third := postJob(t, base, `{"experiment":"fig12","workloads":["LR"]}`)
	waitState(t, base, third.ID, StateDone)

	if resp := getJSON(t, base+"/v1/jobs/"+fetched.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("fetched job survived eviction (GET = %d, want 404)", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/v1/jobs/"+unread.ID, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("unread job was evicted (GET = %d, want 200)", resp.StatusCode)
	}
}

// TestServerBackoffDelayShiftCap: the retry backoff exponent saturates,
// so absurd attempt counts cannot overflow into negative or huge waits.
func TestServerBackoffDelayShiftCap(t *testing.T) {
	base := 100 * time.Millisecond
	capped := backoffDelay(base, 6, "job-x")
	for _, attempt := range []int{7, 20, 63, 1000} {
		d := backoffDelay(base, attempt, "job-x")
		if d <= 0 {
			t.Fatalf("attempt %d: delay %v <= 0", attempt, d)
		}
		// Same shift cap, same id ⇒ only the jitter term (derived from
		// attempt) differs; the doubling must have stopped at 64x.
		if d > 2*capped {
			t.Fatalf("attempt %d: delay %v escaped the 64x cap (%v at attempt 6)", attempt, d, capped)
		}
	}
}
