package e2e

import (
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"charonsim/internal/checkpoint"
	"charonsim/internal/client"
	"charonsim/internal/server"
)

// TestServeE2E is the serving gate: health endpoints answer, a job's
// served report is byte-identical to the CLI's, an identical resubmission
// is a result-cache hit, SIGTERM drains cleanly, and the drained journal
// (the result cache is its done records) holds no torn entry and stands
// alone: charond keeps no separate results store.
func TestServeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("boots charond as a subprocess")
	}
	cacheDir := t.TempDir()
	p := startCharond(t, cacheDir)
	for _, path := range []string{"/healthz", "/readyz"} {
		if code := do(t, http.MethodGet, p.base+path, nil, nil); code != http.StatusOK {
			t.Fatalf("GET %s = %d, want 200", path, code)
		}
	}

	c, ctx := newClient(t, client.Config{BaseURL: p.base})
	spec := server.JobSpec{Experiment: "fig2", Workloads: []string{"BS"}}
	j, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	served, err := c.WaitResult(ctx, j.ID)
	if err != nil {
		t.Fatalf("%v; stderr:\n%s", err, p.stderr())
	}
	if want := cliReport(t, "fig2"); served != want {
		t.Fatalf("served report diverged from the CLI:\n--- served ---\n%q\n--- cli ---\n%q", served, want)
	}

	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != j.ID || again.State != server.StateDone {
		t.Fatalf("resubmission = id %s state %s, want id %s done", again.ID, again.State, j.ID)
	}
	if hits := serverCounter(t, ctx, c, "server/cache_hits"); hits < 1 {
		t.Fatalf("server/cache_hits = %v after an identical resubmission, want >= 1", hits)
	}
	if cached, err := c.Result(ctx, j.ID); err != nil || cached != served {
		t.Fatalf("cached result diverged from the original (err %v)", err)
	}

	p.sigterm(t)
	st, err := checkpoint.Open(filepath.Join(cacheDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	valid, discarded, err := st.Verify()
	if err != nil || valid < 1 || discarded != 0 {
		t.Fatalf("journal after drain: %d valid, %d discarded (err %v), want >= 1 valid and none discarded",
			valid, discarded, err)
	}
	if _, err := os.Stat(filepath.Join(cacheDir, "results")); !os.IsNotExist(err) {
		t.Fatalf("charond created a results store beside its journal (stat err %v)", err)
	}
}
