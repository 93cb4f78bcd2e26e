package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"charonsim"
	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
)

// journalFiles lists the published journal entries under a cache dir.
func journalFiles(t *testing.T, cacheDir string) []string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(cacheDir, "journal", "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	return matches
}

// putRecord stores rec as the journal record under key in cacheDir's
// journal, the way a server that wrote it and then died would leave it.
func putRecord(t *testing.T, cacheDir, key string, rec any) {
	t.Helper()
	st, err := checkpoint.Open(filepath.Join(cacheDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(key, raw); err != nil {
		t.Fatal(err)
	}
}

// TestJournalRecordsBeforeAccept: the durability contract — by the time a
// 202 is visible, the job descriptor is on disk.
func TestJournalRecordsBeforeAccept(t *testing.T) {
	cacheDir := t.TempDir()
	g := newGate("r\n")
	_, base := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: g.runner})

	resp, _ := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	if n := len(journalFiles(t, cacheDir)); n != 1 {
		t.Fatalf("journal entries after 202 = %d, want 1", n)
	}
	close(g.open)
}

// TestJournalReplayResumesUnfinishedJobs: a server that dies holding an
// accepted job leaves a journal record; the next boot over the same cache
// directory requeues and finishes the work.
func TestJournalReplayResumesUnfinishedJobs(t *testing.T) {
	cacheDir := t.TempDir()

	// Server A accepts the job and "crashes" (no drain, no terminal
	// journal transition) while the job is running.
	gA := newGate("never\n")
	_, baseA := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: gA.runner})
	_, v := postJob(t, baseA, `{"experiment":"fig12","workloads":["BS"]}`)
	<-gA.started
	waitState(t, baseA, v.ID, StateRunning)

	// A second running record in the format of a server that still kept
	// a retry history: its "attempts" array is an unknown field now, so
	// the record replays like any other.
	legacy := JobSpec{Experiment: "fig12", Workloads: []string{"KM"}}
	_, legacyKey, err := legacy.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	jst, err := checkpoint.Open(filepath.Join(cacheDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	raw := fmt.Sprintf(`{"schema":%d,"id":%q,"key":%q,"spec":{"experiment":"fig12","workloads":["KM"]},`+
		`"state":"running","created":"2026-01-02T03:04:05Z","updated":"2026-01-02T03:04:07Z",`+
		`"attempts":[{"started":"2026-01-02T03:04:05Z","finished":"2026-01-02T03:04:06Z","error":"attempt doomed: injected fault"},`+
		`{"started":"2026-01-02T03:04:07Z"}]}`, journalSchema, jobID(legacyKey), legacyKey)
	if err := jst.Put(legacyKey, json.RawMessage(raw)); err != nil {
		t.Fatal(err)
	}

	// Server B boots over the same cache directory and must recover both
	// jobs from the journal without a client resubmission, running each
	// once.
	gB := newGate("recovered result\n")
	close(gB.open)
	sB, baseB := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: gB.runner})
	for _, id := range []string{v.ID, jobID(legacyKey)} {
		got := waitState(t, baseB, id, StateDone)
		if got.Recovered != 1 {
			t.Fatalf("job %s: recovered generation = %d, want 1", id, got.Recovered)
		}
		if body := fetchResult(t, baseB, id); body != "recovered result\n" {
			t.Fatalf("job %s: recovered result = %q", id, body)
		}
	}
	if n := gB.runs.Load(); n != 2 {
		t.Fatalf("runner invoked %d times for two recovered jobs, want 2", n)
	}
	if n := sB.Metrics().Counter("server/journal_recovered"); n != 2 {
		t.Fatalf("journal_recovered = %v, want 2", n)
	}
}

// TestJournalGCsTerminalRecords: a boot keeps a `done` record — it is the
// result cache, so the resubmission answers 200 from it without a re-run —
// and collects failed and canceled records, and a schema-1 record even
// when it is `done`: an old-schema report is never served.
func TestJournalGCsTerminalRecords(t *testing.T) {
	cacheDir := t.TempDir()
	g := newGate("done result\n")
	close(g.open)
	s1, base1 := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: g.runner})
	_, v := postJob(t, base1, `{"experiment":"fig12","workloads":["BS"]}`)
	waitState(t, base1, v.ID, StateDone)
	if err := drainWithin(s1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	for i, state := range []string{StateFailed, StateCanceled, StateDone} {
		spec := JobSpec{Experiment: "table4", Threads: i + 1}
		_, key, err := spec.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		rec := journalRecord{Schema: journalSchema, ID: jobID(key), Key: key, Spec: spec,
			State: state, Text: "WRONG — a collected record was served\n"}
		if state == StateDone {
			rec.Schema = 1
		}
		putRecord(t, cacheDir, key, rec)
	}
	if n := len(journalFiles(t, cacheDir)); n != 4 {
		t.Fatalf("terminal journal entries before restart = %d, want 4", n)
	}

	g2 := newGate("fresh run\n")
	close(g2.open)
	s2, base2 := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: g2.runner})
	if n := len(journalFiles(t, cacheDir)); n != 1 {
		t.Fatalf("journal entries after the boot = %d, want the done record alone", n)
	}
	if n := s2.Metrics().Counter("server/journal_gc"); n != 3 {
		t.Fatalf("journal_gc = %v, want 3", n)
	}
	// The done job was not rehydrated into the table...
	if resp := getJSON(t, base2+"/v1/jobs/"+v.ID, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("done job GET after the boot = %d, want 404", resp.StatusCode)
	}
	// ...but its record answers the resubmission, without re-running.
	resp, v2 := postJob(t, base2, `{"experiment":"fig12","workloads":["BS"]}`)
	if resp.StatusCode != http.StatusOK || !v2.Cached || v2.ID != v.ID {
		t.Fatalf("resubmit after the boot = %d cached %v id %s, want 200 cached %s", resp.StatusCode, v2.Cached, v2.ID, v.ID)
	}
	if body := fetchResult(t, base2, v2.ID); body != "done result\n" {
		t.Fatalf("cached result = %q, want the bytes of the first run", body)
	}
	if g2.runs.Load() != 0 {
		t.Fatal("restart re-ran a job whose journal record was done")
	}
	// The schema-1 done record was collected, not served: its job runs.
	resp, v3 := postJob(t, base2, `{"experiment":"table4","threads":3}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit of the schema-1 job = %d, want 202", resp.StatusCode)
	}
	waitState(t, base2, v3.ID, StateDone)
	if body := fetchResult(t, base2, v3.ID); body != "fresh run\n" {
		t.Fatalf("schema-1 job result = %q, want a fresh run", body)
	}
}

// TestJournalDiscardsUnreadableRecords: garbage in the journal directory
// is logged and collected, never replayed. That covers a spec that no
// longer resolves, and a spec that still resolves but was journaled under
// an older canonical-key schema (v1 to v4): its stored key no longer
// matches. A v3 record whose spec set the removed offload deadline, and a
// v4 record whose spec set the removed fault rate, are collected rather
// than re-run with the knob silently dropped.
func TestJournalDiscardsUnreadableRecords(t *testing.T) {
	cacheDir := t.TempDir()
	jdir := filepath.Join(cacheDir, "journal")
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		t.Fatal(err)
	}
	jst, err := checkpoint.Open(jdir)
	if err != nil {
		t.Fatal(err)
	}
	// The v1 key of {"experiment":"table4"}: v1 still carried the
	// removed event-queue watchdog bound (wqueue).
	v1Key := fmt.Sprintf("job/v1|exp=table4|threads=8|factor=1.5|wl=%s|par=0|frate=0|fseed=0|deadline=0|timeout=0|wstalls=0|wqueue=0",
		strings.Join(charonsim.Workloads(), ","))
	// The v2 key of the same spec: v2 still carried the removed stall
	// budget knob (wstalls).
	v2Key := fmt.Sprintf("job/v2|exp=table4|threads=8|factor=1.5|wl=%s|par=0|frate=0|fseed=0|deadline=0|timeout=0|wstalls=0",
		strings.Join(charonsim.Workloads(), ","))
	// The v3 key of {"experiment":"table4","offload_deadline":"1ms"}: v3
	// still carried the removed offload watchdog (deadline).
	v3Key := fmt.Sprintf("job/v3|exp=table4|threads=8|factor=1.5|wl=%s|par=0|frate=0|fseed=0|deadline=1000000|timeout=0",
		strings.Join(charonsim.Workloads(), ","))
	v3Raw := fmt.Sprintf(`{"schema":%d,"id":%q,"key":%q,"spec":{"experiment":"table4","offload_deadline":"1ms"},`+
		`"state":"queued","created":"2026-01-02T03:04:05Z"}`, journalSchema, jobID(v3Key), v3Key)
	if err := jst.Put(v3Key, json.RawMessage(v3Raw)); err != nil {
		t.Fatal(err)
	}
	// The v4 key of {"experiment":"table4","fault_rate":0.01}: v4 still
	// carried the removed session-wide fault knobs (frate, fseed).
	v4Key := fmt.Sprintf("job/v4|exp=table4|threads=8|factor=1.5|wl=%s|par=0|frate=0.01|fseed=0|timeout=0",
		strings.Join(charonsim.Workloads(), ","))
	v4Raw := fmt.Sprintf(`{"schema":%d,"id":%q,"key":%q,"spec":{"experiment":"table4","fault_rate":0.01},`+
		`"state":"queued","created":"2026-01-02T03:04:05Z"}`, journalSchema, jobID(v4Key), v4Key)
	if err := jst.Put(v4Key, json.RawMessage(v4Raw)); err != nil {
		t.Fatal(err)
	}
	for _, rec := range []journalRecord{
		// A record with a spec that no longer resolves.
		{ID: "dead", Key: "job/v1|bogus", Spec: JobSpec{Experiment: "no-such-exp"}},
		// A record with a spec that resolves, under its v1 key.
		{ID: jobID(v1Key), Key: v1Key, Spec: JobSpec{Experiment: "table4"}},
		// The same spec under its v2 key.
		{ID: jobID(v2Key), Key: v2Key, Spec: JobSpec{Experiment: "table4"}},
	} {
		rec.Schema, rec.State, rec.Created = journalSchema, StateQueued, time.Now()
		raw, _ := json.Marshal(rec)
		if err := jst.Put(rec.Key, raw); err != nil {
			t.Fatal(err)
		}
	}

	g := newGate("re-ran a stale record\n")
	close(g.open)
	s, base := newTestServer(t, Config{Workers: 1, CacheDir: cacheDir, runner: g.runner})
	if n := len(journalFiles(t, cacheDir)); n != 0 {
		t.Fatalf("unresolvable record survived boot: %d entries", n)
	}
	if n := s.Metrics().Counter("server/journal_recovered"); n != 0 {
		t.Fatalf("journal_recovered = %v, want 0", n)
	}
	for _, key := range []string{v1Key, v2Key, v3Key, v4Key} {
		resp, err := http.Get(base + "/v1/jobs/" + jobID(key))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s-keyed job answers %d after boot, want 404", key[:6], resp.StatusCode)
		}
	}
	if g.runs.Load() != 0 {
		t.Fatal("boot re-ran a stale journal record")
	}
}

// TestTerminalFailureDoesNotRetry: every failure is terminal on the first
// run — a plain error, a recovered internal panic and an I/O error from a
// full disk alike, since a deterministic simulator fails the same way on a
// re-run. The runner's message reaches the status verbatim, with no
// attempt history.
func TestTerminalFailureDoesNotRetry(t *testing.T) {
	for _, row := range []struct {
		name string
		err  error
	}{
		{"plain", errors.New("validation exploded")},
		{"internal", fmt.Errorf("replay panicked: %w", charonsim.ErrInternal)},
		{"injected", fmt.Errorf("checkpoint write: %w", &os.PathError{Op: "write", Path: "units/x.ckpt.json", Err: syscall.ENOSPC})},
	} {
		t.Run(row.name, func(t *testing.T) {
			var calls atomic.Int64
			runner := func(ctx context.Context, exp string, _ charonsim.Config) (string, error) {
				calls.Add(1)
				return "", row.err
			}
			s, base := newTestServer(t, Config{Workers: 1, runner: runner})
			_, v := postJob(t, base, `{"experiment":"fig12"}`)
			got := waitState(t, base, v.ID, StateFailed)
			if calls.Load() != 1 {
				t.Fatalf("runner invoked %d times, want 1", calls.Load())
			}
			if got.Error != row.err.Error() {
				t.Fatalf("error = %q, want the runner's %q verbatim", got.Error, row.err.Error())
			}
			var raw map[string]any
			getJSON(t, base+"/v1/jobs/"+v.ID, &raw)
			if _, ok := raw["attempts"]; ok {
				t.Fatalf("status carries an attempts history: %v", raw)
			}
			if n := s.Metrics().Counter("server/jobs_failed"); n != 1 {
				t.Fatalf("jobs_failed = %v, want 1", n)
			}
		})
	}
}

// TestDegradedCacheModeAndRecovery drives the journal, which is the
// server's result cache, through a full disk (every write fails) and
// back: the server flips into degraded mode with a gauge and error detail
// on /v1/metrics, keeps serving jobs from memory, and re-enables itself
// on the first successful write. The journal is the only job-level store
// that degrades; no result-store metric exists.
func TestDegradedCacheModeAndRecovery(t *testing.T) {
	ffs := &atomicio.FailFS{Fail: atomicio.FailWrite}
	g := newGate("survives degraded mode\n")
	close(g.open)
	cfg := Config{Workers: 1, CacheDir: t.TempDir(), runner: g.runner}
	cfg.fsys = ffs
	s, base := newTestServer(t, cfg)

	// The job still completes even though every persistence write fails.
	_, v := postJob(t, base, `{"experiment":"fig12","workloads":["BS"]}`)
	waitState(t, base, v.ID, StateDone)
	if body := fetchResult(t, base, v.ID); body != "survives degraded mode\n" {
		t.Fatalf("degraded-mode result = %q", body)
	}

	snap := s.snapshotMetrics()
	if snap.Gauges["server/journal_degraded"] != 1 {
		t.Fatalf("journal_degraded gauge = %v, want 1", snap.Gauges["server/journal_degraded"])
	}
	if snap.Counters["server/journal/degraded_transitions"] != 1 {
		t.Fatalf("journal degraded transitions = %v, want 1", snap.Counters["server/journal/degraded_transitions"])
	}
	for _, names := range []map[string]float64{snap.Gauges, snap.Counters} {
		for name := range names {
			if name == "server/cache_degraded" || strings.HasPrefix(name, "server/result_") {
				t.Fatalf("snapshot still carries result-store metric %s", name)
			}
		}
	}
	var mresp struct {
		Errors map[string]string `json:"errors"`
	}
	getJSON(t, base+"/v1/metrics", &mresp)
	if mresp.Errors["server/journal/last_write_error"] == "" {
		t.Fatalf("/v1/metrics errors missing journal detail: %+v", mresp.Errors)
	}

	// "Disk cleared": the next write succeeds and recovery is automatic.
	ffs.Off.Store(true)
	_, v2 := postJob(t, base, `{"experiment":"fig12","workloads":["KM"]}`)
	waitState(t, base, v2.ID, StateDone)
	snap = s.snapshotMetrics()
	if snap.Gauges["server/journal_degraded"] != 0 {
		t.Fatalf("journal_degraded after recovery = %v, want 0", snap.Gauges["server/journal_degraded"])
	}
	if snap.Counters["server/journal/recoveries"] != 1 {
		t.Fatalf("journal recoveries = %v, want 1", snap.Counters["server/journal/recoveries"])
	}
}

// TestSubmitBodyTooLargeIs413: a spec body past the MaxBytesReader bound
// is rejected with 413, not decoded.
func TestSubmitBodyTooLargeIs413(t *testing.T) {
	_, base := newTestServer(t, Config{})
	body := `{"experiment":"` + strings.Repeat("x", maxBodyBytes+1024) + `"}`
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}
}

// TestCancelRacesCompletion hammers DELETE against natural completion:
// whatever the interleaving, the job must land in exactly one terminal
// state, and journaling each transition under the job's lock must keep
// the durable record from rolling backwards: it holds the state the
// status shows (exercised under -race).
func TestCancelRacesCompletion(t *testing.T) {
	runner := func(ctx context.Context, exp string, _ charonsim.Config) (string, error) {
		return "instant\n", nil
	}
	dir := t.TempDir()
	_, base := newTestServer(t, Config{
		Workers: 4, QueueDepth: 64, CacheDir: dir, runner: runner,
	})
	jst, err := checkpoint.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		body := fmt.Sprintf(`{"experiment":"fig12","threads":%d}`, i+1)
		resp, v := postJob(t, base, body)
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit %d = %d", i, resp.StatusCode)
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+v.ID, nil)
			if r, err := http.DefaultClient.Do(req); err == nil {
				r.Body.Close()
			}
		}()
		wg.Wait()
		deadline := time.Now().Add(10 * time.Second)
		var jv view
		for {
			getJSON(t, base+"/v1/jobs/"+v.ID, &jv)
			if jv.State == StateDone || jv.State == StateCanceled {
				break
			}
			if jv.State == StateFailed {
				t.Fatalf("iteration %d: job failed: %q", i, jv.Error)
			}
			if time.Now().After(deadline) {
				t.Fatalf("iteration %d: job stuck in %q", i, jv.State)
			}
			time.Sleep(time.Millisecond)
		}
		_, key, err := JobSpec{Experiment: "fig12", Threads: i + 1}.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		var rec journalRecord
		if payload, ok := jst.Get(key); !ok || json.Unmarshal(payload, &rec) != nil || rec.State != jv.State {
			t.Fatalf("iteration %d: journaled state %q, status shows %q", i, rec.State, jv.State)
		}
	}
}
