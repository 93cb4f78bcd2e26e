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
// the CLI's. With one connection per attempt, every blackholed or reset
// connection kills exactly the attempt that opened it, so the client's
// transport-error count must cover at least those two classes.
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
			killed := counts[netfault.ClassBlackhole] + counts[netfault.ClassReset]
			m := c.Metrics()
			netErrors := m.Counter("client/net_errors")
			t.Logf("injected %v; client: %v requests, %v transport errors, %v retries",
				counts, m.Counter("client/requests"), netErrors, m.Counter("client/retries"))
			if netErrors < float64(killed) {
				t.Fatalf("proxy killed %d connection(s) (blackhole+reset) but the client saw only %v transport error(s)", killed, netErrors)
			}
		})
	}
	if injected == 0 {
		t.Fatal("the proxy injected no fault across the seed matrix; the run proved nothing")
	}
	p.sigterm(t)
}
