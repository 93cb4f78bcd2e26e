package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"charonsim"
)

// readKinds are the two read surfaces over the admission subject: the
// job, and the one-child sweep whose child is that same job.
var readKinds = []struct{ path, body, noun string }{
	{"/v1/jobs", subjectJob, "job"},
	{"/v1/sweeps", subjectSweep, "sweep"},
}

// readAnswer is one GET response, body included.
type readAnswer struct {
	status      int
	retryAfter  string
	contentType string
	body        string
}

func read(t *testing.T, url string) readAnswer {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return readAnswer{resp.StatusCode, resp.Header.Get("Retry-After"), resp.Header.Get("Content-Type"), string(raw)}
}

// submitID posts body to path and returns the id it answers with.
func submitID(t *testing.T, base, path, body string) string {
	t.Helper()
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		ID string `json:"id"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil || v.ID == "" {
		t.Fatalf("POST %s = %d without an id (%v)", path, resp.StatusCode, err)
	}
	return v.ID
}

// fetchedFlag reports the retention policy's fetched bit of a tracked job
// or sweep.
func fetchedFlag(t *testing.T, s *Server, path, id string) bool {
	t.Helper()
	s.mu.Lock()
	var entry interface {
		retention() (terminal, fetched bool, created time.Time)
	}
	if path == "/v1/jobs" {
		entry = s.jobs[id]
	} else {
		entry = s.sweeps[id]
	}
	s.mu.Unlock()
	_, fetched, _ := entry.retention()
	return fetched
}

// TestReadSurface pins the three GET endpoints on both kinds: a job reads
// as a group of one job, and the one-child sweep over that same job
// answers every read the same way, with the sweep's own noun and id.
func TestReadSurface(t *testing.T) {
	t.Run("list newest first", func(t *testing.T) {
		for _, k := range readKinds {
			t.Run(k.noun, func(t *testing.T) {
				_, base := newTestServer(t, Config{Workers: 1, runner: instantRunner})
				older := submitID(t, base, k.path, k.body)
				time.Sleep(2 * time.Millisecond)
				newer := submitID(t, base, k.path, strings.Replace(k.body, "fig12", "fig13", 1))
				var list map[string][]struct {
					ID string `json:"id"`
				}
				if resp := getJSON(t, base+k.path, &list); resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s = %d", k.path, resp.StatusCode)
				}
				var got []string
				for _, e := range list[k.noun+"s"] {
					got = append(got, e.ID)
				}
				if want := []string{newer, older}; fmt.Sprint(got) != fmt.Sprint(want) {
					t.Fatalf("GET %s ids = %v, want %v", k.path, got, want)
				}
			})
		}
	})

	t.Run("unknown id", func(t *testing.T) {
		for _, k := range readKinds {
			t.Run(k.noun, func(t *testing.T) {
				_, base := newTestServer(t, Config{})
				want := fmt.Sprintf("unknown %s %q", k.noun, "nope")
				for _, url := range []string{base + k.path + "/nope", base + k.path + "/nope/result"} {
					var body struct {
						Error string `json:"error"`
					}
					if resp := getJSON(t, url, &body); resp.StatusCode != http.StatusNotFound {
						t.Fatalf("GET %s = %d, want 404", url, resp.StatusCode)
					}
					if body.Error != want {
						t.Fatalf("GET %s error = %q, want %q", url, body.Error, want)
					}
				}
			})
		}
	})

	failing := func(context.Context, string, charonsim.Config) (string, error) {
		return "", fmt.Errorf("synthetic failure")
	}
	rows := []struct {
		name   string
		runner func(context.Context, string, charonsim.Config) (string, error)
		// settle brings the subject job to the row's state.
		settle func(t *testing.T, base, jobID string)
		// pending: the status GET and the result carry Retry-After, and
		// the result is a 202 with the status document.
		pending bool
		result  int
		body    string // the 200 body, or a substring of the error body
	}{
		{
			name:    "running",
			runner:  blockRunner,
			settle:  func(t *testing.T, base, id string) { waitState(t, base, id, StateRunning) },
			pending: true, result: http.StatusAccepted,
		},
		{
			name:   "failed",
			runner: failing,
			settle: func(t *testing.T, base, id string) { waitState(t, base, id, StateFailed) },
			result: http.StatusInternalServerError, body: "synthetic failure",
		},
		{
			name:   "canceled",
			runner: blockRunner,
			settle: func(t *testing.T, base, id string) {
				waitState(t, base, id, StateRunning)
				req, _ := http.NewRequest(http.MethodDelete, base+"/v1/jobs/"+id, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				waitState(t, base, id, StateCanceled)
			},
			result: http.StatusGone, body: "canceled by client",
		},
		{
			name:   "done",
			runner: instantRunner,
			settle: func(t *testing.T, base, id string) { waitState(t, base, id, StateDone) },
			result: http.StatusOK, body: "r\n",
		},
	}
	for _, row := range rows {
		for _, k := range readKinds {
			t.Run(row.name+"/"+k.noun, func(t *testing.T) {
				s, base := newTestServer(t, Config{Workers: 1, runner: row.runner})
				id := submitID(t, base, k.path, k.body)
				row.settle(t, base, jobID(subjectKey(t)))

				st := read(t, base+k.path+"/"+id)
				if st.status != http.StatusOK {
					t.Fatalf("status GET = %d, want 200", st.status)
				}
				if (st.retryAfter != "") != row.pending {
					t.Errorf("status GET Retry-After = %q, want set: %v", st.retryAfter, row.pending)
				}

				res := read(t, base+k.path+"/"+id+"/result")
				if res.status != row.result {
					t.Fatalf("result GET = %d (%s), want %d", res.status, res.body, row.result)
				}
				if (res.retryAfter != "") != row.pending {
					t.Errorf("result GET Retry-After = %q, want set: %v", res.retryAfter, row.pending)
				}
				switch {
				case row.pending:
					var v struct {
						ID string `json:"id"`
					}
					if err := json.Unmarshal([]byte(res.body), &v); err != nil || v.ID != id {
						t.Errorf("202 body = %s, want the %s status document", res.body, k.noun)
					}
				case row.result == http.StatusOK:
					if res.body != row.body || !strings.HasPrefix(res.contentType, "text/plain") {
						t.Errorf("result = %q (%s), want %q as text/plain", res.body, res.contentType, row.body)
					}
				default:
					if !strings.Contains(res.body, row.body) {
						t.Errorf("result body %s does not name the job's error %q", res.body, row.body)
					}
				}
				if got := fetchedFlag(t, s, k.path, id); got == row.pending {
					t.Errorf("retention fetched = %v after a result GET, want %v", got, !row.pending)
				}
			})
		}
	}
}
