// Package client is the typed Go client for the charond job API — the
// resilient network edge in front of internal/server. It wraps every
// exchange in the discipline a flaky network demands:
//
//   - Bounded exponential-backoff retries with deterministic, seedable
//     jitter, honoring the Retry-After hints of retryable answers (the
//     429 queue-full and 503 draining paths send one).
//   - Safe-to-retry submissions: job IDs are canonical content keys and
//     the server deduplicates single-flight, so a duplicated POST — a
//     retransmit after an ambiguous reset — lands on the same job and
//     never double-runs work.
//   - One recovery path: a stalled GET fails on the per-attempt HTTP
//     timeout and a torn one on its short body read; either way the
//     retry loop issues the next attempt.
//   - Client-side deadlines propagated over the wire: a context deadline
//     becomes an X-Charon-Deadline header, and the server derives the
//     job's execution deadline from it — the caller's patience bounds
//     the work, end to end.
//
// Every retry and transport error lands in a metrics.Registry
// (Metrics()), so chaos tests can reconcile client-side counters against
// the faults a netfault proxy injected; internal/e2e's TestNetchaosE2E
// does exactly that against a real charond process.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"charonsim/internal/fault"
	"charonsim/internal/metrics"
	"charonsim/internal/server"
)

// Config configures a Client. The zero value (plus BaseURL) is a sane
// resilient client; every knob follows the repo convention that 0 means
// "default" and negative means "disable".
type Config struct {
	// BaseURL is the charond root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient overrides the transport (nil = a client with a 30s
	// per-attempt timeout). Per-request deadlines still come from the
	// caller's context.
	HTTPClient *http.Client
	// RetryBudget bounds retries per logical request beyond the first
	// attempt (default 4; negative disables retries).
	RetryBudget int
	// RetryBackoff is the initial retry delay (default 100ms); it doubles
	// per attempt up to 64x, plus up to +50% deterministic jitter drawn
	// from Seed. A server Retry-After hint overrides the computed delay.
	RetryBackoff time.Duration
	// PollInterval paces Wait's and SweepWaitResult's status polling
	// (default 250ms); a status document's Retry-After is not read.
	PollInterval time.Duration
	// RetryAfterMax caps how long a server Retry-After hint is honored
	// (default 30s; negative disables the cap). A server quoting an hour
	// — by bug or hostility — must not stall a command past its own
	// deadline on one hint.
	RetryAfterMax time.Duration
	// Seed selects the deterministic backoff jitter pattern, exactly like
	// the fault layer's seeds: the same seed reproduces the same schedule,
	// different seeds desynchronize.
	Seed int64
	// Log receives request-level logs (nil = discard).
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Timeout: 30 * time.Second}
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 4
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.RetryAfterMax == 0 {
		c.RetryAfterMax = 30 * time.Second
	}
	if c.RetryAfterMax < 0 {
		c.RetryAfterMax = 0 // 0 after defaulting = uncapped
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// APIError is a complete, non-2xx HTTP answer from the server: the host
// is alive and said no. Status carries the code; Message the decoded
// {"error": ...} body when present.
type APIError struct {
	Status  int
	Message string
}

func (e *APIError) Error() string {
	if e.Message == "" {
		return fmt.Sprintf("charond: HTTP %d", e.Status)
	}
	return fmt.Sprintf("charond: HTTP %d: %s", e.Status, e.Message)
}

// ErrNotDone reports that a job's result was requested before the job
// reached a terminal state (the server's 202 poll answer).
var ErrNotDone = &APIError{Status: http.StatusAccepted, Message: "job is not done yet"}

// ErrJobFailed and ErrJobCanceled mark WaitResult errors where the
// network edge worked and the job itself ended badly — callers (and
// charonctl's exit codes) distinguish them from transport failures.
var (
	ErrJobFailed   = errors.New("job reached a failed terminal state")
	ErrJobCanceled = errors.New("job was canceled")
)

// Job is the client-side view of a tracked job (the server's job JSON).
type Job struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Experiment string `json:"experiment"`
	Cached     bool   `json:"cached"`
	Created    string `json:"created,omitempty"`
	Started    string `json:"started,omitempty"`
	Finished   string `json:"finished,omitempty"`
	Deadline   string `json:"deadline,omitempty"`
	Error      string `json:"error,omitempty"`
	Recovered  int    `json:"recovered,omitempty"`
}

// Terminal reports whether the job has reached a final state.
func (j Job) Terminal() bool {
	return j.State == server.StateDone || j.State == server.StateFailed || j.State == server.StateCanceled
}

// Client is a resilient charond API client. Create with New; safe for
// concurrent use.
type Client struct {
	cfg  Config
	base *url.URL
	hc   *http.Client
	log  *slog.Logger
	reg  *metrics.Registry

	backoffMu  sync.Mutex
	backoffSrc *fault.Source // deterministic retry jitter
}

// New builds a client for the charond instance at cfg.BaseURL.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("client: base URL: %w", err)
	}
	if u.Scheme != "http" && u.Scheme != "https" || u.Host == "" {
		return nil, fmt.Errorf("client: base URL %q must be http(s)://host[:port]", cfg.BaseURL)
	}
	u.Path = strings.TrimSuffix(u.Path, "/")
	return &Client{
		cfg:        cfg,
		base:       u,
		hc:         cfg.HTTPClient,
		log:        cfg.Log,
		reg:        metrics.NewRegistry(),
		backoffSrc: fault.NewSource("client/backoff", cfg.Seed),
	}, nil
}

// Metrics exposes the client's counter registry: retries, transport
// errors, Retry-After hints honored. Chaos tests reconcile it against the
// proxy's injected-fault log.
func (c *Client) Metrics() *metrics.Registry { return c.reg }

// response is one complete HTTP exchange.
type response struct {
	status int
	header http.Header
	body   []byte
}

// asError maps a non-2xx response to an *APIError (nil for 2xx).
func (r *response) asError() error {
	if r.status >= 200 && r.status < 300 {
		return nil
	}
	var msg struct {
		Error string `json:"error"`
	}
	_ = json.Unmarshal(r.body, &msg)
	return &APIError{Status: r.status, Message: msg.Error}
}

// retryableStatus classifies the statuses worth another attempt: the
// queue-full 429, the draining 503, and gateway-shaped 502/504. All of
// them may carry a Retry-After hint, which do() honors.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// do runs one logical request through the retry loop. body is resent
// verbatim on every attempt.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*response, error) {
	c.reg.AddUint("client/requests", 1)
	var lastErr error
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return nil, fmt.Errorf("%w (last failure: %v)", err, lastErr)
			}
			return nil, err
		}

		resp, err := c.attempt(ctx, method, path, body)
		if err == nil {
			if rerr := resp.asError(); rerr != nil && retryableStatus(resp.status) && attempt < c.cfg.RetryBudget {
				lastErr = rerr
				c.reg.AddUint("client/retries", 1)
				if serr := c.sleep(ctx, c.backoff(attempt, resp.header)); serr != nil {
					return nil, lastErr
				}
				continue
			}
			return resp, nil // success, or a terminal status the caller interprets
		}

		lastErr = err
		c.reg.AddUint("client/net_errors", 1)
		c.log.Debug("request failed", "method", method, "path", path, "attempt", attempt, "err", err)
		if attempt >= c.cfg.RetryBudget || ctx.Err() != nil {
			return nil, fmt.Errorf("client: %s %s failed after %d attempt(s): %w", method, path, attempt+1, err)
		}
		c.reg.AddUint("client/retries", 1)
		if serr := c.sleep(ctx, c.backoff(attempt, nil)); serr != nil {
			return nil, fmt.Errorf("client: %s %s failed after %d attempt(s): %w", method, path, attempt+1, err)
		}
	}
}

// parseRetryAfter decodes a Retry-After header value in either form RFC
// 9110 allows: delay-seconds ("7") or an HTTP-date ("Fri, 08 Aug 2026
// 10:00:00 GMT", evaluated against now and clamped at zero for dates
// already past). ok is false for absent or malformed values.
func parseRetryAfter(v string, now time.Time) (d time.Duration, ok bool) {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if at, err := http.ParseTime(v); err == nil {
		if d := at.Sub(now); d > 0 {
			return d, true
		}
		return 0, true
	}
	return 0, false
}

// backoff computes the wait before retry `attempt`: a server Retry-After
// hint when present — either RFC form, capped at RetryAfterMax so a
// bogus hint cannot stall a command past its deadline — else
// fault.Backoff with its jitter drawn from the Seed stream.
func (c *Client) backoff(attempt int, hdr http.Header) time.Duration {
	if hdr != nil {
		if d, ok := parseRetryAfter(hdr.Get("Retry-After"), time.Now()); ok {
			c.reg.AddUint("client/retry_after_honored", 1)
			if c.cfg.RetryAfterMax > 0 && d > c.cfg.RetryAfterMax {
				c.reg.AddUint("client/retry_after_capped", 1)
				d = c.cfg.RetryAfterMax
			}
			return d
		}
	}
	c.backoffMu.Lock()
	frac := c.backoffSrc.Frac()
	c.backoffMu.Unlock()
	return fault.Backoff(c.cfg.RetryBackoff, attempt, frac)
}

func (c *Client) sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// newRequest builds one attempt's request, propagating the context
// deadline over the wire as X-Charon-Deadline.
func (c *Client) newRequest(ctx context.Context, method, path string, body []byte) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base.String()+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set(server.DeadlineHeader, dl.UTC().Format(time.RFC3339Nano))
		c.reg.AddUint("client/deadline_headers", 1)
	}
	return req, nil
}

// attempt is one raw HTTP round trip with a fully-read body — a
// truncated body is a transport failure here, so the retry loop sees
// through torn responses.
func (c *Client) attempt(ctx context.Context, method, path string, body []byte) (*response, error) {
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("reading %s %s response: %w", method, path, err)
	}
	return &response{status: resp.StatusCode, header: resp.Header, body: data}, nil
}

// Submit posts a job. Safe under retries and ambiguous failures: the
// job id is a canonical content key, so a duplicated POST deduplicates
// server-side onto the same job.
func (c *Client) Submit(ctx context.Context, spec server.JobSpec) (Job, error) {
	return submit[Job](ctx, c, spec)
}

// Job fetches a job's status.
func (c *Client) Job(ctx context.Context, id string) (Job, error) { return status[Job](ctx, c, id) }

// Wait polls the job until it reaches a terminal state or ctx expires.
// Transient polling failures do not abort the wait — the job keeps
// running server-side regardless, so the client keeps watching until
// its deadline says otherwise.
func (c *Client) Wait(ctx context.Context, id string) (Job, error) { return wait[Job](ctx, c, id) }

// Result fetches a done job's rendered report — the exact bytes the
// server rendered through cli.RenderReports, byte-identical to the
// charonsim CLI's output for the same configuration. Returns ErrNotDone
// while the job is still queued or running.
func (c *Client) Result(ctx context.Context, id string) (string, error) {
	return result[Job](ctx, c, id)
}

// WaitResult waits for the job to finish and returns its report. A
// failed or canceled job returns the server's error.
func (c *Client) WaitResult(ctx context.Context, id string) (string, error) {
	return waitResult[Job](ctx, c, id)
}

// SweepChild is one grid point's status row inside a sweep.
type SweepChild struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Experiment string `json:"experiment"`
	Workloads  string `json:"workloads,omitempty"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
}

// Sweep is the client-side view of a batch sweep (the server's sweep
// JSON): the aggregate state, a per-state census, and the ordered
// children.
type Sweep struct {
	ID        string         `json:"id"`
	State     string         `json:"state"`
	Total     int            `json:"total"`
	Counts    map[string]int `json:"counts"`
	Created   string         `json:"created,omitempty"`
	Recovered int            `json:"recovered,omitempty"`
	Children  []SweepChild   `json:"children"`
}

// Terminal reports whether every child has reached a final state.
func (s Sweep) Terminal() bool {
	return s.State == server.StateDone || s.State == server.StateFailed || s.State == server.StateCanceled
}

// SubmitSweep posts a parameter grid as one batch. Like Submit, it is
// safe under retries and ambiguous failures: the sweep id is the hash of
// the expanded grid, so a duplicated POST deduplicates server-side onto
// the same sweep (and through it onto every cached child result).
func (c *Client) SubmitSweep(ctx context.Context, spec server.SweepSpec) (Sweep, error) {
	return submit[Sweep](ctx, c, spec)
}

// SweepWaitResult waits for the sweep to finish and returns its combined
// report: every child's rendered bytes concatenated in grid order,
// byte-identical to running the equivalent charonsim CLI invocations
// locally. One aggregate poll every PollInterval covers the whole grid,
// and transient polling failures do not abort the wait. A failed or
// canceled sweep maps onto ErrJobFailed/ErrJobCanceled, so charonctl's
// exit contract treats sweeps and jobs uniformly.
func (c *Client) SweepWaitResult(ctx context.Context, id string) (string, error) {
	return waitResult[Sweep](ctx, c, id)
}

// document is a Job or Sweep status document: what the generic helpers
// below need to submit, poll and fetch either kind the same way.
type document interface {
	Job | Sweep
	Terminal() bool
	noun() string                    // "job" or "sweep"
	ident() string                   // the id; empty in a malformed answer
	outcome() (state, detail string) // detail says why it failed or was canceled
}

func (Job) noun() string   { return "job" }
func (Sweep) noun() string { return "sweep" }

func (j Job) ident() string   { return j.ID }
func (s Sweep) ident() string { return s.ID }

func (j Job) outcome() (string, string) { return j.State, j.Error }
func (s Sweep) outcome() (string, string) {
	return s.State, fmt.Sprintf("%d of %d children %s", s.Counts[s.State], s.Total, s.State)
}

// docPath is the resource path of a job or sweep id.
func docPath[T document](id string) string {
	var d T
	return "/v1/" + d.noun() + "s/" + url.PathEscape(id)
}

func submit[T document](ctx context.Context, c *Client, spec any) (T, error) {
	var d T
	payload, err := json.Marshal(spec)
	if err != nil {
		return d, fmt.Errorf("client: encoding %s spec: %w", d.noun(), err)
	}
	return fetch[T](ctx, c, http.MethodPost, "/v1/"+d.noun()+"s", payload)
}

func status[T document](ctx context.Context, c *Client, id string) (T, error) {
	return fetch[T](ctx, c, http.MethodGet, docPath[T](id), nil)
}

// fetch runs one request through the retry loop and decodes the job or
// sweep document it answers with.
func fetch[T document](ctx context.Context, c *Client, method, path string, body []byte) (T, error) {
	var d T
	resp, err := c.do(ctx, method, path, body)
	if err != nil {
		return d, err
	}
	if err := resp.asError(); err != nil {
		return d, err
	}
	if err := json.Unmarshal(resp.body, &d); err != nil {
		return *new(T), fmt.Errorf("client: decoding %s: %w (in %q)", d.noun(), err, resp.body)
	}
	if d.ident() == "" {
		return d, fmt.Errorf("client: %s response missing id (in %q)", d.noun(), resp.body)
	}
	return d, nil
}

func wait[T document](ctx context.Context, c *Client, id string) (T, error) {
	var lastErr error
	for {
		d, err := status[T](ctx, c, id)
		if err == nil {
			if d.Terminal() {
				return d, nil
			}
			lastErr = nil
		} else {
			var apiErr *APIError
			if errors.As(err, &apiErr) {
				return d, err // the server answered: unknown id etc. — not transient
			}
			lastErr = err
		}
		if serr := c.sleep(ctx, c.cfg.PollInterval); serr != nil {
			if lastErr != nil {
				return *new(T), fmt.Errorf("client: %s wait %s: %w (last poll failure: %v)", d.noun(), id, serr, lastErr)
			}
			return *new(T), fmt.Errorf("client: %s wait %s: %w", d.noun(), id, serr)
		}
	}
}

func result[T document](ctx context.Context, c *Client, id string) (string, error) {
	resp, err := c.do(ctx, http.MethodGet, docPath[T](id)+"/result", nil)
	if err != nil {
		return "", err
	}
	if resp.status == http.StatusAccepted {
		return "", ErrNotDone
	}
	if err := resp.asError(); err != nil {
		return "", err
	}
	return string(resp.body), nil
}

func waitResult[T document](ctx context.Context, c *Client, id string) (string, error) {
	for {
		d, err := wait[T](ctx, c, id)
		if err != nil {
			return "", err
		}
		switch state, detail := d.outcome(); state {
		case server.StateDone:
			text, err := result[T](ctx, c, id)
			if err == ErrNotDone {
				continue // raced a state change; re-observe
			}
			return text, err
		case server.StateFailed:
			return "", fmt.Errorf("client: %s %s: %w: %s", d.noun(), id, ErrJobFailed, detail)
		default: // canceled
			return "", fmt.Errorf("client: %s %s: %w: %s", d.noun(), id, ErrJobCanceled, detail)
		}
	}
}

// Cancel requests cancellation and returns the job's resulting view.
func (c *Client) Cancel(ctx context.Context, id string) (Job, error) {
	return fetch[Job](ctx, c, http.MethodDelete, docPath[Job](id), nil)
}

// ServerMetrics fetches the server's /v1/metrics document verbatim.
func (c *Client) ServerMetrics(ctx context.Context) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, "/v1/metrics", nil)
	if err != nil {
		return nil, err
	}
	if err := resp.asError(); err != nil {
		return nil, err
	}
	return resp.body, nil
}

// MetricsSnapshot writes the client-side counter snapshot as JSON —
// charonctl's -client-metrics artifact.
func (c *Client) MetricsSnapshot(w io.Writer) error {
	return c.reg.Snapshot().WriteJSON(w)
}
