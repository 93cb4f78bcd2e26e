package e2e

import (
	"context"
	"encoding/json"
	"net/http"
	"path/filepath"
	"slices"
	"testing"

	"charonsim/internal/client"
	"charonsim/internal/server"
)

// TestKill9E2E is the crash-recovery gate for both kinds of admitted
// work. It kills charond with SIGKILL once the first unit is
// checkpointed, restarts it over the same cache directory, and asserts
// the journal brings the work back under its original ids and finishes
// it without re-running a completed unit, byte-identical to the CLI.
func TestKill9E2E(t *testing.T) {
	if testing.Short() {
		t.Skip("boots charond as a subprocess")
	}
	cases := []struct {
		name string
		path string // collection the work is submitted to
		spec any    // server.JobSpec or server.SweepSpec
		exps []string
		// wait polls the recovered work to its report.
		wait func(*client.Client, context.Context, string) (string, error)
		// recoveredCounter is the /v1/metrics counter the restart bumps.
		recoveredCounter string
	}{
		{
			name: "job", path: "/v1/jobs",
			spec: server.JobSpec{Experiment: "fig2", Workloads: []string{"BS"}},
			exps: []string{"fig2"}, wait: (*client.Client).WaitResult,
			recoveredCounter: "server/journal_recovered",
		},
		{
			name: "sweep", path: "/v1/sweeps",
			spec: server.SweepSpec{Experiments: []string{"fig2", "fig12"}, Workloads: []string{"BS"}},
			exps: []string{"fig2", "fig12"}, wait: (*client.Client).SweepWaitResult,
			recoveredCounter: "server/sweeps_recovered",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			type status struct {
				ID        string `json:"id"`
				Recovered int    `json:"recovered"`
				Children  []struct {
					ID string `json:"id"`
				} `json:"children"`
			}
			cacheDir := t.TempDir()
			body, err := json.Marshal(tc.spec)
			if err != nil {
				t.Fatal(err)
			}

			p1 := startCharond(t, cacheDir)
			var before status
			if code := do(t, http.MethodPost, p1.base+tc.path, body, &before); code != http.StatusAccepted {
				t.Fatalf("submit = %d, want 202", code)
			}
			// The 202 contract: every record (the sweep manifest plus one
			// per child, or the job's own) is on disk before the response.
			recs, _ := filepath.Glob(filepath.Join(cacheDir, "journal", "*.ckpt.json"))
			if want := 1 + len(before.Children); len(recs) < want {
				t.Fatalf("%d journal records on disk after the 202, want >= %d", len(recs), want)
			}

			waitForUnit(t, p1, cacheDir)
			p1.kill9(t)
			units := unitFingerprints(t, cacheDir)

			p2 := startCharond(t, cacheDir)
			var after status
			if code := do(t, http.MethodGet, p2.base+tc.path+"/"+before.ID, nil, &after); code != http.StatusOK {
				t.Fatalf("recovered GET = %d, want 200; stderr:\n%s", code, p2.stderr())
			}
			if after.Recovered < 1 {
				t.Fatalf("not marked crash-recovered: %+v", after)
			}
			if !slices.Equal(after.Children, before.Children) {
				t.Fatalf("child ids changed across the crash: %v -> %v", before.Children, after.Children)
			}

			c, ctx := newClient(t, client.Config{BaseURL: p2.base})
			served, err := tc.wait(c, ctx, before.ID)
			if err != nil {
				t.Fatalf("%v; stderr:\n%s", err, p2.stderr())
			}
			if n := serverCounter(t, ctx, c, tc.recoveredCounter); n < 1 {
				t.Fatalf("%s = %v, want >= 1", tc.recoveredCounter, n)
			}
			for name, fp := range units {
				if now := unitFingerprints(t, cacheDir)[name]; now != fp {
					t.Errorf("pre-crash unit %s rewritten (%s -> %s): completed work re-executed",
						filepath.Base(name), fp, now)
				}
			}
			if want := cliReport(t, tc.exps...); served != want {
				t.Fatalf("recovered report diverged from the CLI:\n--- served ---\n%q\n--- cli ---\n%q", served, want)
			}

			if spec, ok := tc.spec.(server.SweepSpec); ok {
				runs := serverCounter(t, ctx, c, "server/jobs_completed")
				sw, err := c.SubmitSweep(ctx, spec)
				if err != nil {
					t.Fatal(err)
				}
				again, err := c.SweepWaitResult(ctx, sw.ID)
				if err != nil || again != served || sw.ID != before.ID {
					t.Fatalf("duplicate sweep = id %s (err %v), want id %s with the same bytes", sw.ID, err, before.ID)
				}
				if now := serverCounter(t, ctx, c, "server/jobs_completed"); now != runs {
					t.Fatalf("duplicate sweep re-executed children: jobs_completed %v -> %v", runs, now)
				}
			}
			p2.sigterm(t)
		})
	}
}
