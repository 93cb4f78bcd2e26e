package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"charonsim"
	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
)

// crashFS is an atomicio.FS over the real disk that models a process that
// died right after its k-th atomic write: the first k writes land, and
// every write after them is refused at its first operation, so none of it
// reaches the disk. Each landed write is kept, decoded, in landing order.
type crashFS struct {
	mu     sync.Mutex
	left   int // writes still allowed to start
	landed []landedWrite
}

// landedWrite is one journal record as it was published.
type landedWrite struct {
	key, kind, state, text string
}

var errCrashed = errors.New("process died after its last allowed write")

func (c *crashFS) CreateTemp(dir, pattern string) (atomicio.File, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.left == 0 {
		return nil, errCrashed
	}
	c.left--
	return atomicio.OS.CreateTemp(dir, pattern)
}

// Rename publishes the write and keeps what it published. A job's writes
// are serialized by the job's lock, so nothing rewrites newpath before it
// is read back.
func (c *crashFS) Rename(oldpath, newpath string) error {
	if err := atomicio.OS.Rename(oldpath, newpath); err != nil {
		return err
	}
	raw, err := os.ReadFile(newpath)
	if err != nil {
		return err
	}
	var env struct {
		Key     string `json:"key"`
		Payload struct {
			Kind, State, Text string
		} `json:"payload"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return err
	}
	c.mu.Lock()
	c.landed = append(c.landed, landedWrite{env.Key, env.Payload.Kind, env.Payload.State, env.Payload.Text})
	c.mu.Unlock()
	return nil
}

func (c *crashFS) Remove(name string) error { return atomicio.OS.Remove(name) }
func (c *crashFS) SyncDir(dir string) error { return atomicio.OS.SyncDir(dir) }

// countingRunner returns a stub runner, whose report is a deterministic
// function of the job, and a per-key count of its runs.
func countingRunner() (func(context.Context, string, charonsim.Config) (string, error), func(key string) int) {
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

// crashRun submits body to a server whose disk dies after k journal
// writes, waits for the answer the process computed in memory, and stops
// the process. It returns the id, the result bytes and the writes that
// landed.
func crashRun(t *testing.T, dir, path, body string, k int) (id, text string, landed []landedWrite) {
	t.Helper()
	run, _ := countingRunner()
	fsys := &crashFS{left: k}
	s, err := New(Config{Workers: 1, CacheDir: dir, runner: run, fsys: fsys})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	id, text = submitAndWait(t, hs.URL, path, body)
	s.Close()
	return id, text, fsys.landed
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
			id, text, writes := crashRun(t, t.TempDir(), c.path, c.body, math.MaxInt)
			if len(writes) != c.writes {
				t.Fatalf("%d journal writes, want %d: %+v", len(writes), c.writes, writes)
			}
			jobKeys := checkJournalWrites(t, writes, text)
			for k := 0; k <= len(writes); k++ {
				dir := t.TempDir()
				crashRun(t, dir, c.path, c.body, k)
				checkRecovery(t, dir, c.path, c.body, k, id, text, jobKeys)
			}
		})
	}
}

// checkJournalWrites asserts the journal writes of one uncrashed run
// whose answer was text: each job is written queued, running, then done
// with its report, and a sweep's manifest, if any, is written once, after
// every child's queued record. It returns the job keys.
func checkJournalWrites(t *testing.T, writes []landedWrite, text string) (jobKeys []string) {
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
	if err := st.Range(func(key string, payload json.RawMessage) bool {
		var rec struct{ Kind, State string }
		_ = json.Unmarshal(payload, &rec)
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
