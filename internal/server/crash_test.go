package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"charonsim"
	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
)

// journalWrite is one journal record as it was published.
type journalWrite struct {
	key, kind, state, text string
}

// journalWrites decodes the journal records among published, in landing
// order.
func journalWrites(t *testing.T, published []atomicio.Published) []journalWrite {
	t.Helper()
	var writes []journalWrite
	for _, p := range published {
		if filepath.Base(filepath.Dir(p.Path)) != "journal" {
			continue
		}
		key, payload, err := checkpoint.Decode(p.Path, p.Data)
		if err != nil {
			t.Fatal(err)
		}
		var rec bootRecord
		report, ok := decodeRecord(payload, &rec)
		if !ok {
			t.Fatalf("journal record %s does not decode: %q", p.Path, payload)
		}
		writes = append(writes, journalWrite{key, rec.Kind, rec.State, string(report)})
	}
	return writes
}

// runFunc is the type of Config.runner.
type runFunc = func(ctx context.Context, experiment string, cfg charonsim.Config) (string, error)

// countingRunner returns a stub runner, whose report is a deterministic
// function of the job, and a per-key count of its runs.
func countingRunner() (runFunc, func(key string) int) {
	var mu sync.Mutex
	runs := map[string]int{}
	run := func(_ context.Context, exp string, cfg charonsim.Config) (string, error) {
		mu.Lock()
		runs[canonicalKey(exp, cfg)]++
		mu.Unlock()
		return fmt.Sprintf("report of %s on %v\n", exp, cfg.Workloads), nil
	}
	return run, func(key string) int {
		mu.Lock()
		defer mu.Unlock()
		return runs[key]
	}
}

// submitAndWait posts body to the collection at path and waits for the
// answer's result. It returns the id and the result bytes.
func submitAndWait(t *testing.T, base, path, body string) (id, text string) {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v struct {
		ID string `json:"id"`
	}
	err = jsonDecode(resp.Body, &v)
	resp.Body.Close()
	if err != nil || v.ID == "" {
		t.Fatalf("POST %s = %d with no id (%v)", path, resp.StatusCode, err)
	}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		resp, err := http.Get(base + path + "/" + v.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			return v.ID, string(raw)
		}
		if resp.StatusCode != http.StatusAccepted || time.Now().After(deadline) {
			t.Fatalf("GET %s result = %d: %s", v.ID, resp.StatusCode, raw)
		}
	}
}

// crashRun submits body to a server over dir whose process dies right
// after its k-th atomic write, journal records and unit checkpoints alike:
// every later write is refused at its create, so none of it reaches the
// disk. It waits for the answer the process computed in memory and stops
// the process. A nil run is the real runner. It returns the id, the result
// bytes and the filesystem, which holds the writes that landed.
func crashRun(t *testing.T, run runFunc, dir, path, body string, k int) (id, text string, fsys *atomicio.FailFS) {
	t.Helper()
	fsys = &atomicio.FailFS{Fail: atomicio.FailCreate, After: k}
	s, err := New(Config{Workers: 1, CacheDir: dir, runner: run, fsys: fsys})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	id, text = submitAndWait(t, hs.URL, path, body)
	s.Close()
	return id, text, fsys
}

// TestCrashAtEveryJournalWrite crashes charond after every journal write
// of one job and of one sweep, and boots a fresh server over what the
// crash left. For each k the first k writes land; then, over the same
// directory, nothing accepted is lost (every unfinished record is
// recovered under its id), nothing completed runs again (a job whose done
// record landed is answered from it), ids are unchanged and the report
// bytes are identical to an uncrashed run's.
func TestCrashAtEveryJournalWrite(t *testing.T) {
	for _, c := range []struct {
		name, path, body string
		writes           int
	}{
		{"job", "/v1/jobs", subjectJob, 3},
		{"sweep", "/v1/sweeps", `{"experiments":["table3","table4"],"workloads":["BS"]}`, 7},
	} {
		t.Run(c.name, func(t *testing.T) {
			run, _ := countingRunner()
			id, text, fsys := crashRun(t, run, t.TempDir(), c.path, c.body, math.MaxInt)
			writes := journalWrites(t, fsys.Published())
			if len(writes) != c.writes {
				t.Fatalf("%d journal writes, want %d: %+v", len(writes), c.writes, writes)
			}
			jobKeys := checkJournalWrites(t, writes, text)
			for k := 0; k <= len(writes); k++ {
				dir := t.TempDir()
				crashRun(t, run, dir, c.path, c.body, k)
				checkRecovery(t, dir, c.path, c.body, k, id, text, jobKeys)
			}
		})
	}
}

// checkJournalWrites asserts the journal writes of one uncrashed run
// whose answer was text: each job is written queued, running, then done
// with its report, and a sweep's manifest, if any, is written once, after
// every child's queued record. It returns the job keys.
func checkJournalWrites(t *testing.T, writes []journalWrite, text string) (jobKeys []string) {
	t.Helper()
	states := map[string][]string{}
	keysAtManifest := -1
	for _, w := range writes {
		if w.kind == journalKindSweep {
			if keysAtManifest >= 0 {
				t.Fatalf("sweep manifest written twice: %+v", writes)
			}
			keysAtManifest = len(jobKeys)
			continue
		}
		if len(states[w.key]) == 0 {
			jobKeys = append(jobKeys, w.key)
		}
		states[w.key] = append(states[w.key], w.state)
		if w.state == StateDone && (w.text == "" || !strings.Contains(text, w.text)) {
			t.Fatalf("done record of %s carries %q, not its report", w.key, w.text)
		}
	}
	for key, got := range states {
		if strings.Join(got, ",") != "queued,running,done" {
			t.Fatalf("journal writes of %s = %v, want queued, running, done", key, got)
		}
	}
	if keysAtManifest >= 0 && keysAtManifest != len(jobKeys) {
		t.Fatalf("sweep manifest written before every child was journaled: %+v", writes)
	}
	return jobKeys
}

// checkRecovery boots a server over dir, which a process left after
// crashing at write k, and asserts the four crash-recovery guarantees
// against the uncrashed run's id and report bytes.
func checkRecovery(t *testing.T, dir, path, body string, k int, id, text string, jobKeys []string) {
	t.Helper()
	left := map[string]string{} // job key -> journaled state
	manifest := false           // the sweep manifest landed
	st, err := checkpoint.Open(filepath.Join(dir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Range(func(key string, payload []byte) bool {
		var rec bootRecord
		decodeRecord(payload, &rec)
		if rec.Kind == journalKindSweep {
			manifest = true
		} else {
			left[key] = rec.State
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}

	run, runs := countingRunner()
	s, base := newTestServer(t, Config{Workers: 1, CacheDir: dir, runner: run})
	unfinished := false
	for _, key := range jobKeys {
		if state := left[key]; state == StateQueued || state == StateRunning {
			unfinished = true
			var v view
			if resp := getJSON(t, base+"/v1/jobs/"+jobID(key), &v); resp.StatusCode != http.StatusOK || v.Recovered != 1 {
				t.Fatalf("k=%d: %s record %s was lost: GET = %d, recovered %d", k, state, key, resp.StatusCode, v.Recovered)
			}
		}
	}
	if manifest && unfinished {
		if resp := getJSON(t, base+"/v1/sweeps/"+id, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: journaled sweep with an unfinished child was lost: GET = %d", k, resp.StatusCode)
		}
	}

	gotID, gotText := submitAndWait(t, base, path, body)
	if gotID != id {
		t.Fatalf("k=%d: id after the crash = %s, want %s", k, gotID, id)
	}
	if gotText != text {
		t.Fatalf("k=%d: report after the crash = %q, want %q", k, gotText, text)
	}
	for _, key := range jobKeys {
		want := 1
		if left[key] == StateDone {
			want = 0
		}
		if n := runs(key); n != want {
			t.Fatalf("k=%d: %s (journaled %q) ran %d times after the crash, want %d", k, key, left[key], n, want)
		}
	}
	s.Close()
}

// TestCrashAtEveryUnitWrite crashes charond after every atomic write of
// one job on the real runner: its three journal records and the unit
// checkpoints its replay writes between running and done. Serial replay
// fixes the landing order. For each k the first k writes land; then a
// fresh server boots over the same directory, on the same filesystem
// switched off, and the job comes back under its original id (recovered
// when its queued or running record landed), it resumes from the units
// that landed and publishes none of them again, and its report bytes are
// the uncrashed run's.
func TestCrashAtEveryUnitWrite(t *testing.T) {
	if testing.Short() {
		t.Skip("replays fig12 on BS twice per write")
	}
	const body = `{"experiment":"fig12","workloads":["BS"],"parallelism":-1}`
	dir := t.TempDir()
	id, text, fsys := crashRun(t, nil, dir, "/v1/jobs", body, math.MaxInt)
	writes := fsys.Published()
	all := unitWrites(writes)
	entries, err := filepath.Glob(filepath.Join(dir, "units", "*.ckpt.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 || len(all) != len(entries) || len(writes) != 3+len(all) {
		t.Fatalf("%d writes with %d unit checkpoints, want 3 journal records plus one per unit entry (%d)",
			len(writes), len(all), len(entries))
	}
	jobKey := checkJournalWrites(t, journalWrites(t, writes), text)[0]
	t.Logf("%d writes: 3 journal records and %d unit checkpoints", len(writes), len(all))

	for k := 0; k <= len(writes); k++ {
		dir := t.TempDir()
		_, _, fsys := crashRun(t, nil, dir, "/v1/jobs", body, k)
		landed := fsys.Published()
		state := ""
		if jw := journalWrites(t, landed); len(jw) > 0 {
			state = jw[len(jw)-1].state
		}
		fsys.Off.Store(true)
		s, base := newTestServer(t, Config{Workers: 1, CacheDir: dir, fsys: fsys})
		if state == StateQueued || state == StateRunning {
			var v view
			if resp := getJSON(t, base+"/v1/jobs/"+jobID(jobKey), &v); resp.StatusCode != http.StatusOK || v.Recovered != 1 {
				t.Fatalf("k=%d: %s job was not recovered: GET = %d, recovered %d", k, state, resp.StatusCode, v.Recovered)
			}
		}
		gotID, gotText := submitAndWait(t, base, "/v1/jobs", body)
		s.Close()
		if gotID != id {
			t.Fatalf("k=%d: id after the crash = %s, want %s", k, gotID, id)
		}
		if gotText != text {
			t.Fatalf("k=%d: report after the crash differs from the uncrashed run's", k)
		}
		before, after := unitWrites(landed), unitWrites(fsys.Published()[len(landed):])
		for path := range after {
			if before[path] {
				t.Fatalf("k=%d: recovery published landed unit %s again", k, filepath.Base(path))
			}
		}
		if len(before)+len(after) != len(all) {
			t.Fatalf("k=%d: %d units landed and recovery wrote %d, want %d in all", k, len(before), len(after), len(all))
		}
	}
}

// unitWrites returns the set of unit checkpoint paths among published.
func unitWrites(published []atomicio.Published) map[string]bool {
	units := map[string]bool{}
	for _, p := range published {
		if filepath.Base(filepath.Dir(p.Path)) == "units" {
			units[p.Path] = true
		}
	}
	return units
}
