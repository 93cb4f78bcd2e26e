package client

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"charonsim/internal/server"
)

func runCtl(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb strings.Builder
	code = Main(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestCtlHelpExitsZero(t *testing.T) {
	for _, args := range [][]string{
		{"-h"}, {"-help"},
		{"submit", "-h"},
	} {
		code, _, errOut := runCtl(t, args...)
		if code != 0 {
			t.Errorf("charonctl %v exited %d, want 0\n%s", args, code, errOut)
		}
		if errOut == "" {
			t.Errorf("charonctl %v printed no usage text", args)
		}
	}
}

func TestCtlUsageErrorsExitTwo(t *testing.T) {
	for _, args := range [][]string{
		{},                                  // no command
		{"-definitely-not-a-flag"},          // bad global flag
		{"frobnicate"},                      // unknown command
		{"submit"},                          // missing -experiment
		{"wait"},                            // missing job id
		{"result", "a", "b"},                // too many args
		{"metrics", "extra"},                // metrics takes none
		{"proxy"},                           // removed command
		{"-server", "::bad::", "wait", "x"}, // unusable base URL
	} {
		code, _, _ := runCtl(t, args...)
		if code != 2 {
			t.Errorf("charonctl %v exited %d, want 2", args, code)
		}
	}
}

// TestCtlSubmitWaitResultCancelMetrics drives every API subcommand
// against a stub charond and checks output and exit codes.
func TestCtlSubmitWaitResultCancelMetrics(t *testing.T) {
	const report = "w/BS pause 1.23ms\n"
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.Method == http.MethodPost && r.URL.Path == "/v1/jobs":
			writeJSONStatus(w, 202, map[string]any{"id": "j1", "state": "queued", "experiment": "fig12"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1":
			writeJSONStatus(w, 200, map[string]any{"id": "j1", "state": "done", "experiment": "fig12"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/jobs/j1/result":
			fmt.Fprint(w, report)
		case r.Method == http.MethodDelete && r.URL.Path == "/v1/jobs/j1":
			writeJSONStatus(w, 200, map[string]any{"id": "j1", "state": "canceled", "experiment": "fig12"})
		case r.Method == http.MethodGet && r.URL.Path == "/v1/metrics":
			fmt.Fprint(w, `{"counters":{"server/jobs_completed":1}}`)
		default:
			writeJSONStatus(w, 404, map[string]any{"error": "unknown route"})
		}
	}))
	defer hs.Close()

	// submit -wait prints the report bytes verbatim.
	code, out, errOut := runCtl(t, "-server", hs.URL, "submit", "-experiment", "fig12", "-wait")
	if code != 0 || out != report {
		t.Fatalf("submit -wait: code=%d out=%q err=%q", code, out, errOut)
	}

	// submit without -wait prints the job view.
	code, out, _ = runCtl(t, "-server", hs.URL, "submit", "-experiment", "fig12")
	var j Job
	if code != 0 || json.Unmarshal([]byte(out), &j) != nil || j.ID != "j1" {
		t.Fatalf("submit: code=%d out=%q", code, out)
	}

	// wait reaches done and exits 0.
	code, out, _ = runCtl(t, "-server", hs.URL, "wait", "j1")
	if code != 0 || !strings.Contains(out, `"done"`) {
		t.Fatalf("wait: code=%d out=%q", code, out)
	}

	// result prints the exact bytes.
	code, out, _ = runCtl(t, "-server", hs.URL, "result", "j1")
	if code != 0 || out != report {
		t.Fatalf("result: code=%d out=%q", code, out)
	}

	// cancel prints the canceled view.
	code, out, _ = runCtl(t, "-server", hs.URL, "cancel", "j1")
	if code != 0 || !strings.Contains(out, `"canceled"`) {
		t.Fatalf("cancel: code=%d out=%q", code, out)
	}

	// metrics relays the server document.
	code, out, _ = runCtl(t, "-server", hs.URL, "metrics")
	if code != 0 || !strings.Contains(out, "server/jobs_completed") {
		t.Fatalf("metrics: code=%d out=%q", code, out)
	}

	// -client-metrics lands a JSON snapshot on disk.
	path := filepath.Join(t.TempDir(), "client.json")
	code, _, _ = runCtl(t, "-server", hs.URL, "-client-metrics", path, "result", "j1")
	if code != 0 {
		t.Fatalf("result with -client-metrics exited %d", code)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatalf("client metrics file is not JSON: %v\n%s", err, raw)
	}
}

// TestCtlJobFailureExitsThree: a failed job is exit 3 — distinct from
// network failure (1) and usage error (2).
func TestCtlJobFailureExitsThree(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case strings.HasSuffix(r.URL.Path, "/result"):
			writeJSONStatus(w, 500, map[string]any{"error": "job failed: watchdog abort"})
		default:
			writeJSONStatus(w, 200, map[string]any{"id": "j1", "state": "failed", "experiment": "fig12", "error": "watchdog abort"})
		}
	}))
	defer hs.Close()

	code, _, _ := runCtl(t, "-server", hs.URL, "wait", "j1")
	if code != 3 {
		t.Fatalf("wait on a failed job exited %d, want 3", code)
	}
	code, _, _ = runCtl(t, "-server", hs.URL, "result", "j1")
	if code != 3 {
		t.Fatalf("result of a failed job exited %d, want 3", code)
	}
}

// TestCtlNetworkFailureExitsOne: nothing listening → exit 1 after the
// retry budget, not a hang and not an exit-2 usage error.
func TestCtlNetworkFailureExitsOne(t *testing.T) {
	// Reserve and release a port so nothing answers there.
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	dead := hs.URL
	hs.Close()

	code, _, _ := runCtl(t, "-server", dead, "-retries", "1", "-backoff", "1ms", "result", "j1")
	if code != 1 {
		t.Fatalf("dead server exited %d, want 1", code)
	}
}

// TestCtlDeadlinePropagation: -timeout travels to the server as the
// deadline header.
func TestCtlDeadlinePropagation(t *testing.T) {
	var sawDeadline bool
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get(server.DeadlineHeader) != "" {
			sawDeadline = true
		}
		fmt.Fprint(w, "{}")
	}))
	defer hs.Close()

	runCtl(t, "-server", hs.URL, "-timeout", "1m", "metrics")
	if !sawDeadline {
		t.Fatalf("no %s header reached the server from -timeout", server.DeadlineHeader)
	}
}

func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
