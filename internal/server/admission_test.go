package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"charonsim"
	"charonsim/internal/checkpoint"
)

// The admission subject: one job, and a one-child sweep whose child is
// that same job (same canonical key, same id).
const (
	subjectJob   = `{"experiment":"fig12","workloads":["BS"]}`
	subjectSweep = `{"experiments":["fig12"],"workloads":["BS"]}`
)

func subjectKey(t *testing.T) string {
	t.Helper()
	_, key, err := JobSpec{Experiment: "fig12", Workloads: []string{"BS"}}.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// admissionOutcome is what one submission is expected to produce: the
// status, whether Retry-After is set, and the deltas of the admission
// counters.
type admissionOutcome struct {
	status     int
	retryAfter bool
	dedup      float64 // server/dedup_hits
	cache      float64 // server/cache_hits
	childDedup float64 // server/sweep_child_dedup
	rejected   float64 // server/queue_rejected
	submitted  float64 // server/jobs_submitted
}

var admissionCounters = []string{
	"server/dedup_hits", "server/cache_hits", "server/sweep_child_dedup",
	"server/queue_rejected", "server/jobs_submitted",
}

func (o admissionOutcome) counters() []float64 {
	return []float64{o.dedup, o.cache, o.childDedup, o.rejected, o.submitted}
}

// fillQueue pins the single worker with one blocked job and parks a
// second in the queue, so a QueueDepth-1 server is full.
func fillQueue(t *testing.T, base string) {
	t.Helper()
	_, a := postJob(t, base, `{"experiment":"fig13","workloads":["BS"]}`)
	waitState(t, base, a.ID, StateRunning)
	if resp, _ := postJob(t, base, `{"experiment":"fig13","workloads":["KM"]}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("filling the queue = %d, want 202", resp.StatusCode)
	}
}

// blockRunner runs until its context ends.
func blockRunner(ctx context.Context, _ string, _ charonsim.Config) (string, error) {
	<-ctx.Done()
	return "", ctx.Err()
}

// TestAdmissionOutcomes pins the order of charond's admission steps — reuse
// a tracked job, complete from the result cache, pass the gate (draining,
// then queue depth), queue — on both submit endpoints. A sweep passes the
// gate as a whole before its children are admitted, which is why a full
// queue refuses a sweep even when its only child is cached.
func TestAdmissionOutcomes(t *testing.T) {
	rows := []struct {
		name       string
		setup      func(t *testing.T) (*Server, string)
		job, sweep admissionOutcome
	}{
		{
			name: "duplicate of a live job",
			setup: func(t *testing.T) (*Server, string) {
				s, base := newTestServer(t, Config{Workers: 1, runner: blockRunner})
				_, v := postJob(t, base, subjectJob)
				waitState(t, base, v.ID, StateRunning)
				return s, base
			},
			job:   admissionOutcome{status: http.StatusOK, dedup: 1},
			sweep: admissionOutcome{status: http.StatusAccepted, dedup: 1, childDedup: 1},
		},
		{
			name: "duplicate of a done job",
			setup: func(t *testing.T) (*Server, string) {
				s, base := newTestServer(t, Config{Workers: 1, runner: instantRunner})
				_, v := postJob(t, base, subjectJob)
				waitState(t, base, v.ID, StateDone)
				return s, base
			},
			job:   admissionOutcome{status: http.StatusOK, dedup: 1, cache: 1},
			sweep: admissionOutcome{status: http.StatusOK, dedup: 1, cache: 1, childDedup: 1},
		},
		{
			name: "disk-cache hit after a restart",
			setup: func(t *testing.T) (*Server, string) {
				dir := t.TempDir()
				s1, base1 := newTestServer(t, Config{Workers: 1, CacheDir: dir, runner: instantRunner})
				_, v := postJob(t, base1, subjectJob)
				waitState(t, base1, v.ID, StateDone)
				if err := drainWithin(s1, 5*time.Second); err != nil {
					t.Fatal(err)
				}
				return newTestServer(t, Config{Workers: 1, CacheDir: dir, runner: instantRunner})
			},
			job:   admissionOutcome{status: http.StatusOK, cache: 1, submitted: 1},
			sweep: admissionOutcome{status: http.StatusOK, cache: 1, childDedup: 1, submitted: 1},
		},
		{
			name: "draining",
			setup: func(t *testing.T) (*Server, string) {
				s, base := newTestServer(t, Config{Workers: 1, runner: instantRunner})
				if err := drainWithin(s, time.Minute); err != nil {
					t.Fatal(err)
				}
				return s, base
			},
			job:   admissionOutcome{status: http.StatusServiceUnavailable, retryAfter: true},
			sweep: admissionOutcome{status: http.StatusServiceUnavailable, retryAfter: true},
		},
		{
			name: "queue full",
			setup: func(t *testing.T) (*Server, string) {
				s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 1, runner: blockRunner})
				fillQueue(t, base)
				return s, base
			},
			job:   admissionOutcome{status: http.StatusTooManyRequests, retryAfter: true, rejected: 1},
			sweep: admissionOutcome{status: http.StatusTooManyRequests, retryAfter: true, rejected: 1},
		},
		{
			name: "queue full with the result cached",
			setup: func(t *testing.T) (*Server, string) {
				dir, key := t.TempDir(), subjectKey(t)
				putRecord(t, dir, key, journalRecord{Schema: journalSchema, ID: jobID(key), Key: key,
					Spec: JobSpec{Experiment: "fig12", Workloads: []string{"BS"}}, State: StateDone, Text: "cached\n"})
				s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheDir: dir, runner: blockRunner})
				fillQueue(t, base)
				return s, base
			},
			job:   admissionOutcome{status: http.StatusOK, cache: 1, submitted: 1},
			sweep: admissionOutcome{status: http.StatusTooManyRequests, retryAfter: true, rejected: 1},
		},
	}
	for _, row := range rows {
		for _, ep := range []struct {
			path, body string
			want       admissionOutcome
		}{
			{"/v1/jobs", subjectJob, row.job},
			{"/v1/sweeps", subjectSweep, row.sweep},
		} {
			t.Run(row.name+ep.path, func(t *testing.T) {
				s, base := row.setup(t)
				before := make([]float64, len(admissionCounters))
				for i, name := range admissionCounters {
					before[i] = s.Metrics().Counter(name)
				}
				resp, err := http.Post(base+ep.path, "application/json", strings.NewReader(ep.body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != ep.want.status {
					t.Errorf("status = %d, want %d", resp.StatusCode, ep.want.status)
				}
				if got := resp.Header.Get("Retry-After") != ""; got != ep.want.retryAfter {
					t.Errorf("Retry-After set = %v, want %v", got, ep.want.retryAfter)
				}
				for i, name := range admissionCounters {
					if d := s.Metrics().Counter(name) - before[i]; d != ep.want.counters()[i] {
						t.Errorf("%s moved by %v, want %v", name, d, ep.want.counters()[i])
					}
				}
			})
		}
	}
}

// failingOnce fails the first run of every job, then blocks until the
// job's context ends: a resubmission stays live while the test looks at
// it.
func failingOnce() func(context.Context, string, charonsim.Config) (string, error) {
	var failed atomic.Bool
	return func(ctx context.Context, exp string, cfg charonsim.Config) (string, error) {
		if exp == "fig12" && failed.CompareAndSwap(false, true) {
			return "", errors.New("synthetic failure")
		}
		return blockRunner(ctx, exp, cfg)
	}
}

// TestRefusedResubmissionKeepsFailedEntry: resubmitting a failed job or
// sweep that the gate then refuses must leave the failed entry readable —
// the replacement takes its place only once it is admitted.
func TestRefusedResubmissionKeepsFailedEntry(t *testing.T) {
	refusals := []struct {
		name   string
		status int
		refuse func(t *testing.T, s *Server, base string)
	}{
		{"draining", http.StatusServiceUnavailable, func(t *testing.T, s *Server, base string) {
			if err := drainWithin(s, time.Minute); err != nil {
				t.Fatal(err)
			}
		}},
		{"queue full", http.StatusTooManyRequests, func(t *testing.T, s *Server, base string) {
			fillQueue(t, base)
		}},
	}
	for _, ref := range refusals {
		for _, ep := range []struct{ path, body string }{
			{"/v1/jobs", subjectJob},
			{"/v1/sweeps", subjectSweep},
		} {
			t.Run(ref.name+ep.path, func(t *testing.T) {
				s, base := newTestServer(t, Config{Workers: 1, QueueDepth: 1, runner: failingOnce()})
				resp, err := http.Post(base+ep.path, "application/json", strings.NewReader(ep.body))
				if err != nil {
					t.Fatal(err)
				}
				var v struct {
					ID string `json:"id"`
				}
				_ = jsonDecode(resp.Body, &v)
				resp.Body.Close()
				waitState(t, base, jobID(subjectKey(t)), StateFailed)

				ref.refuse(t, s, base)
				resp, err = http.Post(base+ep.path, "application/json", strings.NewReader(ep.body))
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != ref.status {
					t.Fatalf("resubmission = %d, want %d", resp.StatusCode, ref.status)
				}
				var after struct {
					State string `json:"state"`
				}
				if resp := getJSON(t, base+ep.path+"/"+v.ID, &after); resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s/%s after the refused resubmission = %d, want 200", ep.path, v.ID, resp.StatusCode)
				}
				if after.State != StateFailed {
					t.Fatalf("state after the refused resubmission = %q, want %q", after.State, StateFailed)
				}
			})
		}
	}
}

// TestSweepTableBounded: MaxJobs bounds the sweep table as it bounds the
// job table, by evicting terminal sweeps oldest first.
func TestSweepTableBounded(t *testing.T) {
	s, base := newTestServer(t, Config{Workers: 1, MaxJobs: 2, runner: instantRunner})
	var ids []string
	for _, exp := range []string{"fig12", "fig13", "fig14", "fig15", "fig16"} {
		_, sw := postSweep(t, base, fmt.Sprintf(`{"experiments":[%q],"workloads":["BS"]}`, exp))
		waitSweepState(t, base, sw.ID, StateDone)
		ids = append(ids, sw.ID)
	}
	if n := s.snapshotMetrics().Counters["server/sweeps_tracked"]; n > 2 {
		t.Fatalf("sweeps_tracked = %v with MaxJobs 2, want at most 2", n)
	}
	if resp := getJSON(t, base+"/v1/sweeps/"+ids[0], nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("oldest sweep GET = %d, want 404 (evicted)", resp.StatusCode)
	}
	if resp := getJSON(t, base+"/v1/sweeps/"+ids[4], nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("newest sweep GET = %d, want 200", resp.StatusCode)
	}
}

// waitJournaled polls the journal record stored under key until its state
// is one of want, or fails the test with the last state seen.
func waitJournaled(t *testing.T, dir, key string, want ...string) {
	t.Helper()
	st, err := checkpoint.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	// A transition is journaled before it shows in the status view, but
	// the caller may not have waited for the view; poll briefly.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		var rec struct {
			State string `json:"state"`
		}
		if payload, ok := st.Get(key); ok {
			decodeRecord(payload, &rec)
		}
		if slices.Contains(want, rec.State) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("journaled state for %s = %q, want one of %v", key, rec.State, want)
		}
	}
}

// TestResubmissionIsJournaled: a job or sweep that replaces a failed one
// under the same key is journaled afresh, so a crash right after the 202
// recovers it rather than the failure it replaced — the job's record
// holds its new state, and a reboot recovers the sweep under its id.
func TestResubmissionIsJournaled(t *testing.T) {
	for _, ep := range []struct {
		path, body string
		check      func(t *testing.T, dir, id string)
	}{
		{"/v1/jobs", subjectJob, func(t *testing.T, dir, _ string) {
			waitJournaled(t, dir, subjectKey(t), StateRunning)
		}},
		{"/v1/sweeps", subjectSweep, func(t *testing.T, dir, id string) {
			_, baseB := newTestServer(t, Config{Workers: 1, CacheDir: dir, runner: blockRunner})
			var sw sweepView
			if resp := getJSON(t, baseB+"/v1/sweeps/"+id, &sw); resp.StatusCode != http.StatusOK {
				t.Fatalf("GET sweep after reboot = %d, want 200", resp.StatusCode)
			}
			if sw.Recovered < 1 {
				t.Fatalf("sweep after reboot: recovered = %d, want >= 1", sw.Recovered)
			}
		}},
	} {
		t.Run(ep.path, func(t *testing.T) {
			dir := t.TempDir()
			_, base := newTestServer(t, Config{Workers: 1, CacheDir: dir, runner: failingOnce()})
			post := func() (int, string) {
				resp, err := http.Post(base+ep.path, "application/json", strings.NewReader(ep.body))
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var v struct {
					ID string `json:"id"`
				}
				_ = jsonDecode(resp.Body, &v)
				return resp.StatusCode, v.ID
			}
			post()
			waitState(t, base, jobID(subjectKey(t)), StateFailed)
			code, id := post()
			if code != http.StatusAccepted {
				t.Fatalf("resubmission = %d, want 202", code)
			}
			waitState(t, base, jobID(subjectKey(t)), StateRunning)
			ep.check(t, dir, id)
		})
	}
}

// TestEvictedResubmissionIsJournaled: a failed job evicted from the job
// table and then resubmitted is journaled in its new state. The evicted
// job's last write landed before its failure was visible, so the
// replacement's writes order after it even though no table entry is left
// to carry it.
func TestEvictedResubmissionIsJournaled(t *testing.T) {
	dir := t.TempDir()
	_, base := newTestServer(t, Config{Workers: 1, MaxJobs: 1, CacheDir: dir, runner: failingOnce()})
	_, failed := postJob(t, base, subjectJob)
	waitState(t, base, failed.ID, StateFailed)
	_, evictor := postJob(t, base, `{"experiment":"table3","workloads":["BS"]}`)
	waitState(t, base, evictor.ID, StateRunning)
	if resp := getJSON(t, base+"/v1/jobs/"+failed.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("failed job GET = %d, want 404 (evicted)", resp.StatusCode)
	}
	if resp, _ := postJob(t, base, subjectJob); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmission = %d, want 202", resp.StatusCode)
	}
	waitJournaled(t, dir, subjectKey(t), StateQueued, StateRunning)
}
