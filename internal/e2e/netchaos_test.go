package e2e

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"charonsim/internal/client"
	"charonsim/internal/fault/netfault"
	"charonsim/internal/server"
)

// TestNetchaosE2E is the network-edge gate. For each seed, a netfault
// proxy in front of one charond process injects resets, blackholes,
// latency, truncated bodies and slowloris reads. A client that opens a
// fresh connection per request (so every request redraws the proxy's
// per-connection fault plan) must still fetch a report byte-identical to
// the CLI's. Whenever a hard fault was injected, the client's ledger must
// show the retries, transport errors or hedges that absorbed it.
func TestNetchaosE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("boots charond as a subprocess")
	}
	p := startCharond(t, t.TempDir())
	want := cliReport(t, "fig2")
	var injected uint64
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			px, err := netfault.New("127.0.0.1:0", strings.TrimPrefix(p.base, "http://"),
				netfault.Config{Rate: 0.25, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer px.Close()
			c, ctx := newClient(t, client.Config{
				BaseURL: "http://" + px.Addr(),
				HTTPClient: &http.Client{
					Timeout:   30 * time.Second,
					Transport: &http.Transport{DisableKeepAlives: true},
				},
				RetryBudget:  10,
				RetryBackoff: 50 * time.Millisecond,
				HedgeDelay:   300 * time.Millisecond,
				Seed:         seed,
			})
			j, err := c.Submit(ctx, server.JobSpec{Experiment: "fig2", Workloads: []string{"BS"}})
			if err != nil {
				t.Fatal(err)
			}
			served, err := c.WaitResult(ctx, j.ID)
			if err != nil {
				t.Fatal(err)
			}
			if served != want {
				t.Fatalf("report fetched through the faulty proxy diverged from the CLI:\n--- served ---\n%q\n--- cli ---\n%q", served, want)
			}

			counts := px.Counts()
			injected += px.Injected()
			hard := counts[netfault.ClassBlackhole] + counts[netfault.ClassReset] + counts[netfault.ClassTruncate]
			m := c.Metrics()
			recovery := m.Counter("client/retries") + m.Counter("client/net_errors") + m.Counter("client/hedges")
			t.Logf("injected %v; client: %v requests, %v recovery actions", counts, m.Counter("client/requests"), recovery)
			if hard > 0 && recovery == 0 {
				t.Fatalf("proxy injected %d hard fault(s) but the client ledger shows no recovery work", hard)
			}
		})
	}
	if injected == 0 {
		t.Fatal("the proxy injected no fault across the seed matrix; the run proved nothing")
	}
	p.sigterm(t)
}
