package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"charonsim/internal/server"
)

func newTestClient(t *testing.T, baseURL string, mut func(*Config)) *Client {
	t.Helper()
	cfg := Config{
		BaseURL:      baseURL,
		RetryBackoff: time.Millisecond,
		PollInterval: 5 * time.Millisecond,
	}
	if mut != nil {
		mut(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func counter(c *Client, name string) float64 {
	return c.Metrics().Counter(name)
}

func TestNewRejectsBadBaseURL(t *testing.T) {
	for _, u := range []string{"", "not a url", "ftp://host", "http://"} {
		if _, err := New(Config{BaseURL: u}); err == nil {
			t.Errorf("New accepted base URL %q", u)
		}
	}
}

// TestRetryOn503HonorsRetryAfter: a 503 with a Retry-After hint is
// retried after (at least) the hinted delay, and the retry succeeds.
func TestRetryOn503HonorsRetryAfter(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"error":"draining"}`)
			return
		}
		fmt.Fprint(w, `{"id":"abc","state":"done","experiment":"fig12"}`)
	}))
	defer hs.Close()

	c := newTestClient(t, hs.URL, nil)
	start := time.Now()
	j, err := c.Job(context.Background(), "abc")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != server.StateDone {
		t.Fatalf("state = %q", j.State)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2", got)
	}
	if d := time.Since(start); d < time.Second {
		t.Fatalf("retry fired after %v, before the 1s Retry-After hint", d)
	}
	if counter(c, "client/retry_after_honored") != 1 {
		t.Fatal("retry_after_honored counter not bumped")
	}
	if counter(c, "client/retries") != 1 {
		t.Fatal("retries counter not bumped")
	}
}

// TestRetryBudgetExhausted: a persistently failing endpoint gives up
// after RetryBudget extra attempts and surfaces the terminal error.
func TestRetryBudgetExhausted(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadGateway)
		fmt.Fprint(w, `{"error":"bad hop"}`)
	}))
	defer hs.Close()

	c := newTestClient(t, hs.URL, func(cfg *Config) { cfg.RetryBudget = 2 })
	_, err := c.Job(context.Background(), "abc")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadGateway {
		t.Fatalf("err = %v, want APIError 502", err)
	}
	if got := calls.Load(); got != 3 { // 1 initial + 2 retries
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestNonRetryableStatusIsTerminal: a 404 comes back immediately as an
// APIError without burning the retry budget.
func TestNonRetryableStatusIsTerminal(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"unknown job"}`)
	}))
	defer hs.Close()

	c := newTestClient(t, hs.URL, nil)
	_, err := c.Job(context.Background(), "nope")
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("err = %v, want APIError 404", err)
	}
	if !strings.Contains(apiErr.Message, "unknown job") {
		t.Fatalf("message = %q", apiErr.Message)
	}
	if calls.Load() != 1 {
		t.Fatalf("404 was retried (%d calls)", calls.Load())
	}
}

// TestDeadlineHeaderPropagated: a context deadline travels as
// X-Charon-Deadline, parseable and close to the context's own deadline.
func TestDeadlineHeaderPropagated(t *testing.T) {
	var got atomic.Value
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got.Store(r.Header.Get(server.DeadlineHeader))
		fmt.Fprint(w, `{"id":"abc","state":"done","experiment":"fig12"}`)
	}))
	defer hs.Close()

	c := newTestClient(t, hs.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if _, err := c.Job(ctx, "abc"); err != nil {
		t.Fatal(err)
	}
	raw, _ := got.Load().(string)
	if raw == "" {
		t.Fatalf("no %s header sent", server.DeadlineHeader)
	}
	sent, err := time.Parse(time.RFC3339Nano, raw)
	if err != nil {
		t.Fatalf("header %q is not RFC3339Nano: %v", raw, err)
	}
	ctxDl, _ := ctx.Deadline()
	if diff := sent.Sub(ctxDl); diff < -time.Second || diff > time.Second {
		t.Fatalf("header deadline %v is %v away from the context deadline %v", sent, diff, ctxDl)
	}
	if counter(c, "client/deadline_headers") == 0 {
		t.Fatal("deadline_headers counter not bumped")
	}

	// And no header without a context deadline.
	got.Store("")
	if _, err := c.Job(context.Background(), "abc"); err != nil {
		t.Fatal(err)
	}
	if raw, _ := got.Load().(string); raw != "" {
		t.Fatalf("deadline header %q sent without a context deadline", raw)
	}
}

// TestHedgeWinsOnSlowFirstRequest: the first GET stalls past HedgeDelay,
// the hedge races it, and the hedge's fast answer is returned.
func TestHedgeWinsOnSlowFirstRequest(t *testing.T) {
	var calls atomic.Int32
	release := make(chan struct{})
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			<-release // first request hangs until the test ends
		}
		fmt.Fprint(w, `{"id":"abc","state":"done","experiment":"fig12"}`)
	}))
	defer hs.Close()
	defer close(release)

	c := newTestClient(t, hs.URL, func(cfg *Config) { cfg.HedgeDelay = 20 * time.Millisecond })
	start := time.Now()
	j, err := c.Job(context.Background(), "abc")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != server.StateDone {
		t.Fatalf("state = %q", j.State)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("hedged GET took %v; the hedge did not race the stalled first request", d)
	}
	if counter(c, "client/hedges") != 1 || counter(c, "client/hedge_wins") != 1 {
		t.Fatalf("hedges=%v hedge_wins=%v, want 1/1",
			counter(c, "client/hedges"), counter(c, "client/hedge_wins"))
	}
}

// TestSubmitNeverHedges: POSTs must not hedge even with HedgeDelay
// armed — duplicate submissions are retry-safe but hedging them would
// double write-path load for no latency win.
func TestSubmitNeverHedges(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		time.Sleep(50 * time.Millisecond) // well past HedgeDelay
		fmt.Fprint(w, `{"id":"abc","state":"queued","experiment":"fig12"}`)
	}))
	defer hs.Close()

	c := newTestClient(t, hs.URL, func(cfg *Config) { cfg.HedgeDelay = 5 * time.Millisecond })
	if _, err := c.Submit(context.Background(), server.JobSpec{Experiment: "fig12"}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("POST hit the server %d times, want 1", got)
	}
	if counter(c, "client/hedges") != 0 {
		t.Fatal("a POST was hedged")
	}
}

// TestWaitSurvivesTransientPollFailures: Wait keeps polling through a
// flaky stretch and still observes the terminal state.
func TestWaitSurvivesTransientPollFailures(t *testing.T) {
	var calls atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n := calls.Add(1); {
		case n%2 == 1 && n < 6: // every other early poll dies mid-flight
			hj := w.(http.Hijacker)
			conn, _, _ := hj.Hijack()
			conn.Close()
		case n < 8:
			fmt.Fprint(w, `{"id":"abc","state":"running","experiment":"fig12"}`)
		default:
			fmt.Fprint(w, `{"id":"abc","state":"done","experiment":"fig12"}`)
		}
	}))
	defer hs.Close()

	c := newTestClient(t, hs.URL, func(cfg *Config) { cfg.RetryBudget = -1 })
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	j, err := c.Wait(ctx, "abc")
	if err != nil {
		t.Fatal(err)
	}
	if j.State != server.StateDone {
		t.Fatalf("state = %q", j.State)
	}
}

// TestResultNotDone: a 202 from the result endpoint maps to ErrNotDone.
func TestResultNotDone(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"abc","state":"running","experiment":"fig12"}`)
	}))
	defer hs.Close()

	c := newTestClient(t, hs.URL, nil)
	if _, err := c.Result(context.Background(), "abc"); err != ErrNotDone {
		t.Fatalf("err = %v, want ErrNotDone", err)
	}
}

// TestEndToEndAgainstRealServer: submit → wait → result against a real
// in-process charond, through the full client stack.
func TestEndToEndAgainstRealServer(t *testing.T) {
	srv, err := server.New(server.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	c := newTestClient(t, hs.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	j, err := c.Submit(ctx, server.JobSpec{Experiment: "table4"})
	if err != nil {
		t.Fatal(err)
	}
	text, err := c.WaitResult(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if text == "" {
		t.Fatal("empty report for table4")
	}
	// The report is the cached canonical bytes: fetching again is
	// byte-identical.
	again, err := c.Result(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if again != text {
		t.Fatal("re-fetched result differs from the first fetch")
	}
	// The deadline header made it into the job view.
	got, err := c.Job(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Deadline == "" {
		t.Fatal("job view has no effective deadline despite the client's context deadline")
	}
	var buf strings.Builder
	if err := c.MetricsSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(buf.String()), &snap); err != nil {
		t.Fatalf("metrics snapshot is not JSON: %v\n%s", err, buf.String())
	}
}
