// Package server implements charond, the long-running simulation service:
// an HTTP job API over the charonsim experiment harness. Jobs (an
// experiment id plus a charonsim.Config) are validated at admission,
// queued into a bounded admission queue with backpressure (429 +
// Retry-After when full), executed on a fixed worker pool through the
// public RunContext/RunAllContext entry points (which share recorded
// workloads within a job via experiments.Session), and cached: identical
// submissions are deduplicated single-flight in memory and served from a
// checkpoint-backed response cache on disk, so a warm restart answers
// repeat jobs without simulating.
//
// Endpoints:
//
//	POST   /v1/jobs             submit (202; 200 on dedup/cache hit; 429 full; 503 draining)
//	GET    /v1/jobs             list tracked jobs
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result rendered report (CLI byte-identical)
//	DELETE /v1/jobs/{id}        cancel (context-propagated, event-loop granularity)
//	GET    /healthz             liveness
//	GET    /readyz              readiness (503 while draining)
//	GET    /v1/metrics          server + cache counters (internal/metrics snapshot)
//
// Graceful drain: Drain stops admission, lets queued/running jobs finish,
// and on deadline expiry cancels in-flight jobs — whose completed replay
// units are already persisted in the shared per-unit checkpoint store, so
// a restarted server resumes them instead of recomputing.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"charonsim"
	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
	"charonsim/internal/cli"
	"charonsim/internal/fault"
	"charonsim/internal/metrics"
)

// Config configures a Server.
type Config struct {
	// Workers is the number of concurrent job executors (default 2). Each
	// job additionally fans its simulation units out per its own
	// Parallelism knob, so keep Workers small.
	Workers int
	// QueueDepth bounds the admission queue (default 16). A full queue
	// rejects submissions with 429 + Retry-After.
	QueueDepth int
	// CacheDir, when non-empty, enables the on-disk layer: completed job
	// reports are persisted in CacheDir/results (checkpoint-backed,
	// checksummed, atomic) and served on identical resubmission across
	// restarts, and jobs run with CacheDir/units as their per-unit
	// checkpoint store so partially-completed work survives a drain.
	// Empty keeps both caches in memory only (dedup still works within
	// the process lifetime).
	CacheDir string
	// JobTimeout, when positive, is the default per-unit RunTimeout
	// applied to jobs that do not set run_timeout themselves. It reuses
	// the existing RunTimeout plumbing: the harness worker pool budget
	// plus the engine watchdog heartbeat.
	JobTimeout time.Duration
	// MaxJobs bounds the in-memory job table (default 1024); when
	// exceeded, the oldest terminal jobs are evicted. Their results stay
	// servable from the disk cache.
	MaxJobs int
	// RetryBudget bounds automatic re-executions of transiently-failed
	// jobs — injected I/O faults and recovered internal panics
	// (charonsim.ErrInternal) retry with exponential backoff plus
	// deterministic jitter; anything else fails immediately. 0 selects
	// the default (2 retries); negative disables retries entirely.
	RetryBudget int
	// RetryBackoff is the initial retry delay (default 250ms); it doubles
	// per attempt up to 64x, plus up to +50% deterministic jitter derived
	// from the job id. Tests shrink it.
	RetryBackoff time.Duration
	// ShedLatency, when positive, enables latency-aware load shedding: a
	// submission whose estimated queue wait (queued jobs × the observed
	// mean job duration ÷ workers) exceeds it is rejected with 503 +
	// Retry-After — distinct from the hard 429 queue-depth limit, which
	// still applies.
	ShedLatency time.Duration
	// Log receives structured request and lifecycle logs (nil = discard).
	Log *slog.Logger

	// runner executes one job and returns the rendered report. Tests
	// substitute a controllable stub; nil selects the real experiment
	// harness.
	runner func(ctx context.Context, experiment string, cfg charonsim.Config) (string, error)
	// fsys overrides the filesystem under the persistence stack (result
	// cache + journal); tests inject a fault.FS here. nil = real disk.
	fsys atomicio.FS
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.MaxJobs <= 0 {
		c.MaxJobs = 1024
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RetryBudget < 0 {
		c.RetryBudget = 0 // explicit "no retries"
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 250 * time.Millisecond
	}
	if c.Log == nil {
		c.Log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.runner == nil {
		c.runner = runExperiments
	}
	return c
}

// Server is the charond job service. Create with New, serve Handler(),
// stop with Drain.
type Server struct {
	cfg      Config
	log      *slog.Logger
	reg      *metrics.Registry
	results  *checkpoint.Store // response cache; nil without CacheDir
	units    *checkpoint.Store // handle on the per-unit store, for metrics
	unitsDir string            // per-unit checkpoint store for jobs; "" without CacheDir

	journal       *journal  // write-ahead job log; nil without CacheDir
	cacheHealth   *degrader // result-cache degraded-mode tracker
	journalHealth *degrader // journal degraded-mode tracker

	avgRunNanos atomic.Int64 // EWMA of completed job durations (shed estimator)

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu            sync.Mutex
	jobs          map[string]*job
	sweeps        map[string]*sweep
	queue         *jobQueue
	draining      bool
	drainDeadline time.Time // Drain's ctx deadline; sizes the draining 503's Retry-After
	wg            sync.WaitGroup // worker goroutines
}

// jobQueue is the admission queue: an unbounded FIFO the workers pop
// from. The client-facing QueueDepth bound is enforced by explicit len
// checks at admission (submit's 429, the shed estimator), not by the
// queue's capacity — journal recovery and sweep expansion must always be
// able to enqueue work they have already promised a caller, even when
// that transiently exceeds the depth new submissions are held to.
//
// Keeping the queued jobs in an indexable slice is also what makes wait
// estimates position-aware: position() reports how many jobs sit ahead
// of a given id, so an early job is never quoted the whole queue's wait.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*job
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push appends j. Pushing after close is a no-op (the job stays tracked
// and is settled by Drain's cancellation sweep).
func (q *jobQueue) push(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.items = append(q.items, j)
	q.cond.Signal()
}

// pop blocks until a job is available or the queue is closed and empty;
// ok is false only in the latter case.
func (q *jobQueue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j = q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return j, true
}

func (q *jobQueue) len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// position returns how many jobs sit ahead of id in the queue, or -1
// when id is not queued (about to be popped, running, or terminal).
func (q *jobQueue) position(id string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, j := range q.items {
		if j.id == id {
			return i
		}
	}
	return -1
}

// close wakes every blocked worker; subsequent pops drain the remaining
// items and then report closed.
func (q *jobQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.cond.Broadcast()
}

// New builds a server, replays the job journal (when a cache directory is
// configured), and starts its worker pool. Unfinished journaled jobs —
// work a previous process accepted with a 202 and then died holding —
// are requeued before the first worker starts, so they resume (from
// their per-unit checkpoints) ahead of new submissions; terminal records
// are garbage-collected.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		log:    cfg.Log,
		reg:    metrics.NewRegistry(),
		jobs:   map[string]*job{},
		sweeps: map[string]*sweep{},
	}
	s.cacheHealth = &degrader{name: "result_cache", log: cfg.Log, reg: s.reg}
	s.journalHealth = &degrader{name: "journal", log: cfg.Log, reg: s.reg}
	if cfg.CacheDir != "" {
		st, err := checkpoint.OpenFS(filepath.Join(cfg.CacheDir, "results"), cfg.fsys)
		if err != nil {
			return nil, fmt.Errorf("server: result cache: %w", err)
		}
		s.results = st
		s.unitsDir = filepath.Join(cfg.CacheDir, "units")
		if s.units, err = checkpoint.Open(s.unitsDir); err != nil {
			return nil, fmt.Errorf("server: unit store: %w", err)
		}
		if s.journal, err = openJournal(filepath.Join(cfg.CacheDir, "journal"), cfg.fsys, s.journalHealth); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())

	recovered, pendingSweeps, gcKeys := s.replayJournal()
	// The queue is unbounded internally: every recovered job enqueues
	// ahead of the client-facing admission bound — submissions are
	// rejected once QueueDepth jobs wait, but crash-recovered work must
	// never be dropped for lack of a slot.
	s.queue = newJobQueue()
	for _, j := range recovered {
		s.jobs[j.id] = j
		s.queue.push(j)
		s.journal.record(j)
		s.reg.AddUint("server/journal_recovered", 1)
		s.log.Info("journal: recovered job", "job", j.id,
			"experiment", j.spec.Experiment, "generation", j.recovered)
	}
	gcKeys = append(gcKeys, s.recoverSweeps(pendingSweeps)...)
	if n := s.journal.gc(gcKeys); n > 0 {
		s.reg.AddUint("server/journal_gc", uint64(n))
		s.log.Info("journal: collected terminal records", "n", n)
	}

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// replayJournal loads the journal and rebuilds the unfinished jobs a dead
// process left behind. Jobs whose result meanwhile landed in the response
// cache (crash between persist and the journal's terminal transition) are
// completed in place rather than re-run. Returns the jobs to requeue and
// the record keys to garbage-collect.
func (s *Server) replayJournal() (recovered []*job, pendingSweeps []sweepRecord, gcKeys []string) {
	pending, sweeps, terminal, err := s.journal.replay(s.log)
	if err != nil {
		s.log.Warn("journal: replay scan failed; continuing without recovery", "err", err)
		return nil, nil, nil
	}
	gcKeys = terminal
	for _, rec := range pending {
		cfg, key, rerr := rec.Spec.Resolve()
		if rerr != nil { // replay() pre-checked; defensive
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		j := &job{
			id: jobID(key), key: key, spec: rec.Spec, cfg: cfg,
			state: StateQueued, created: rec.Created,
			attempts:  rec.Attempts,
			recovered: rec.Recovered + 1,
			seq:       1,
			done:      make(chan struct{}),
		}
		if text, ok := s.cachedText(key); ok {
			// The previous process finished the work and persisted the
			// report but died before journaling "done".
			j.state = StateDone
			j.cached = true
			j.text = text
			j.finished = time.Now()
			close(j.done)
			s.jobs[j.id] = j
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		recovered = append(recovered, j)
	}
	return recovered, sweeps, gcKeys
}

// Metrics exposes the server's registry (tests and the /v1/metrics
// endpoint read it).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the HTTP API with request logging applied.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	mux.HandleFunc("GET /v1/sweeps", s.handleSweepList)
	mux.HandleFunc("GET /v1/sweeps/{id}", s.handleSweepGet)
	mux.HandleFunc("GET /v1/sweeps/{id}/result", s.handleSweepResult)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.isDraining() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	return s.logRequests(mux)
}

// statusRecorder captures the response code for the request log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (s *Server) logRequests(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(rec, r)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr)
	})
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// writeJSON writes v as the response body with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds submission bodies; a job spec is a handful of
// scalar knobs, so anything beyond this is malformed or hostile.
const maxBodyBytes = 1 << 20

// DeadlineHeader is the request header carrying the client's absolute
// deadline as an RFC3339Nano timestamp. On submission it bounds the
// job's execution: the job context expires at min(header deadline,
// start + RunTimeout), a submission whose deadline already passed is
// rejected with 504 before queueing, and a job whose deadline lapses
// while queued fails without running — the server never burns worker
// time on an answer nobody is still waiting for.
const DeadlineHeader = "X-Charon-Deadline"

// parseDeadline extracts the client deadline header (zero time when
// absent).
func parseDeadline(r *http.Request) (time.Time, error) {
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return time.Time{}, nil
	}
	t, err := time.Parse(time.RFC3339Nano, raw)
	if err != nil {
		return time.Time{}, fmt.Errorf("invalid %s header %q: %v (want RFC3339Nano, e.g. %q)",
			DeadlineHeader, raw, err, time.Now().UTC().Format(time.RFC3339Nano))
	}
	return t, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	r.Body = http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"job spec exceeds the %d-byte limit (a spec is a handful of scalar knobs; this is not one)", maxBodyBytes)
			return
		}
		writeError(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	cfg, key, err := spec.Resolve()
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid job spec: %v", err)
		return
	}
	deadline, err := parseDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !deadline.IsZero() && !deadline.After(time.Now()) {
		s.reg.AddUint("server/deadline_expired_rejects", 1)
		writeError(w, http.StatusGatewayTimeout,
			"deadline %s already expired at admission; not queueing doomed work",
			deadline.UTC().Format(time.RFC3339Nano))
		return
	}
	j, status, retryAfter, err := s.submit(spec, cfg, key, deadline)
	if err != nil {
		if retryAfter > 0 {
			w.Header().Set("Retry-After", fmt.Sprintf("%d", retryAfter))
		}
		writeError(w, status, "%v", err)
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, status, j.view())
}

// submit deduplicates, consults the response cache, applies load
// shedding and the queue-depth bound, journals the accepted descriptor,
// and enqueues. The returned status is 200 for an existing/cached job,
// 202 for a freshly queued one; on rejection retryAfter carries the
// Retry-After hint in seconds.
func (s *Server) submit(spec JobSpec, cfg charonsim.Config, key string, deadline time.Time) (j *job, status, retryAfter int, err error) {
	id := jobID(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if existing, ok := s.jobs[id]; ok {
		existing.mu.Lock()
		state := existing.state
		existing.mu.Unlock()
		switch state {
		case StateQueued, StateRunning, StateDone:
			// Single-flight dedup: same descriptor, same job. The first
			// submitter's deadline governs — a duplicate POST (a client
			// retry after an ambiguous failure) must not loosen or tighten
			// work already in flight.
			s.reg.AddUint("server/dedup_hits", 1)
			if state == StateDone {
				s.reg.AddUint("server/cache_hits", 1)
			}
			return existing, http.StatusOK, 0, nil
		}
		// failed/canceled: fall through and replace with a fresh attempt.
		delete(s.jobs, id)
	}
	if s.draining {
		return nil, http.StatusServiceUnavailable, s.drainRetryAfterLocked(),
			errors.New("server is draining; not accepting new jobs")
	}
	s.reg.AddUint("server/jobs_submitted", 1)

	j = &job{id: id, key: key, spec: spec, cfg: cfg, deadline: deadline,
		state: StateQueued, created: time.Now(), seq: 1, done: make(chan struct{})}

	// Warm path: a prior run of this exact descriptor — possibly by an
	// earlier process over the same cache directory — already persisted
	// the report.
	if text, ok := s.cachedText(key); ok {
		j.state = StateDone
		j.cached = true
		j.text = text
		j.finished = time.Now()
		close(j.done)
		s.insertLocked(j)
		s.reg.AddUint("server/cache_hits", 1)
		return j, http.StatusOK, 0, nil
	}
	s.reg.AddUint("server/cache_misses", 1)

	// Latency-aware shedding: refuse work we could queue but not serve
	// within the configured wait bound. Softer and earlier than the hard
	// depth limit below, with an honest Retry-After.
	if wait := s.estimatedWait(s.queue.len()); s.cfg.ShedLatency > 0 && wait > s.cfg.ShedLatency {
		s.reg.AddUint("server/shed_rejected", 1)
		return nil, http.StatusServiceUnavailable, retryAfterSeconds(wait),
			fmt.Errorf("estimated queue wait %s exceeds the %s shed bound; retry later",
				wait.Round(time.Millisecond), s.cfg.ShedLatency)
	}

	// Hard depth bound. The internal queue is unbounded (journal recovery
	// and sweep expansion pre-seed it past the depth), so the
	// client-facing limit is an explicit length check.
	if s.queue.len() >= s.cfg.QueueDepth {
		s.reg.AddUint("server/queue_rejected", 1)
		return nil, http.StatusTooManyRequests, 1,
			fmt.Errorf("admission queue full (%d queued); retry later", s.cfg.QueueDepth)
	}

	// Durability point: the accepted descriptor is journaled before the
	// 202 leaves the building, so a crash at any later moment leaves a
	// record to replay.
	s.insertLocked(j)
	s.journal.record(j)
	s.queue.push(j)
	s.reg.SetMax("server/queue_high_water", float64(s.queue.len()))
	return j, http.StatusAccepted, 0, nil
}

// estimatedWait predicts how long a job with `ahead` queued jobs in
// front of it waits for a worker: ahead times the observed mean job
// duration, spread over the worker pool. Zero until the first job
// completes — the server sheds on evidence, not guesses.
func (s *Server) estimatedWait(ahead int) time.Duration {
	avg := s.avgRunNanos.Load()
	if avg <= 0 || ahead <= 0 {
		return 0
	}
	return time.Duration(int64(ahead) * avg / int64(s.cfg.Workers))
}

// retryAfterSeconds renders a wait estimate as a Retry-After value
// (whole seconds, at least 1).
func retryAfterSeconds(wait time.Duration) int {
	return int(math.Max(1, math.Ceil(wait.Seconds())))
}

// drainRetryAfterLocked derives the Retry-After hint on the draining
// 503: the remaining drain budget is the earliest instant a restarted
// process could be accepting work again, so that is the honest hint.
// Without a drain deadline (or once it has passed) fall back to the
// queue-wait estimator. Callers hold s.mu.
func (s *Server) drainRetryAfterLocked() int {
	if !s.drainDeadline.IsZero() {
		if rem := time.Until(s.drainDeadline); rem > 0 {
			return retryAfterSeconds(rem)
		}
	}
	return retryAfterSeconds(s.estimatedWait(s.queue.len()))
}

// pollRetryAfter hints when a result poller should come back. A queued
// job's hint is position-aware: only the jobs actually ahead of it (plus
// its own expected run) feed the estimate, so a job at the head of a
// deep queue is never told to back off behind the whole queue. A running
// job polls at the 1-second floor.
func (s *Server) pollRetryAfter(j *job) int {
	j.mu.Lock()
	queued := j.state == StateQueued
	j.mu.Unlock()
	if !queued {
		return 1
	}
	ahead := s.queue.position(j.id)
	if ahead < 0 {
		// Popped but not yet transitioned: it is next.
		ahead = 0
	}
	return retryAfterSeconds(s.estimatedWait(ahead + 1))
}

// insertLocked adds j to the job table and evicts terminal jobs past the
// retention bound. Eviction prefers terminal jobs whose result has
// already been fetched (oldest first) and only then falls back to
// unfetched terminal jobs — a done job nobody has read yet still owes
// its submitter an answer, so it must never be displaced by older jobs
// that already delivered theirs. Callers hold s.mu.
func (s *Server) insertLocked(j *job) {
	s.jobs[j.id] = j
	for len(s.jobs) > s.cfg.MaxJobs {
		var oldestFetched, oldestUnfetched *job
		for _, cand := range s.jobs {
			cand.mu.Lock()
			terminal := cand.state == StateDone || cand.state == StateFailed || cand.state == StateCanceled
			fetched := cand.fetched
			created := cand.created
			cand.mu.Unlock()
			if !terminal {
				continue
			}
			if fetched {
				if oldestFetched == nil || created.Before(oldestFetched.created) {
					oldestFetched = cand
				}
			} else if oldestUnfetched == nil || created.Before(oldestUnfetched.created) {
				oldestUnfetched = cand
			}
		}
		victim := oldestFetched
		if victim == nil {
			victim = oldestUnfetched
		}
		if victim == nil {
			return // everything is live; let the table grow
		}
		delete(s.jobs, victim.id)
	}
}

// cachedResult is the response-cache payload.
type cachedResult struct {
	Experiment string `json:"experiment"`
	Text       string `json:"text"`
}

func (s *Server) cachedText(key string) (string, bool) {
	if s.results == nil {
		return "", false
	}
	payload, ok := s.results.Get(key)
	if !ok {
		return "", false
	}
	var c cachedResult
	if err := json.Unmarshal(payload, &c); err != nil {
		return "", false
	}
	return c.Text, true
}

// persistResult writes the rendered report into the response cache and
// folds the outcome into the cache's health state: the first failure
// flips the server into explicitly-degraded "cache-disabled" mode (gauge
// + one-shot log), and the first subsequent success re-enables it. A
// degraded cache never fails the job — the report is still served from
// memory; it just recomputes after a restart.
func (s *Server) persistResult(key, experiment, text string) {
	if s.results == nil {
		return
	}
	payload, err := json.Marshal(cachedResult{Experiment: experiment, Text: text})
	if err != nil {
		s.cacheHealth.observe(fmt.Errorf("encode result: %w", err))
		return
	}
	s.cacheHealth.observe(s.results.Put(key, payload))
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	views := make([]view, 0, len(s.jobs))
	for _, j := range s.jobs {
		views = append(views, j.view())
	}
	s.mu.Unlock()
	// Stable order: newest first, id as tie-break.
	sortViews(views)
	writeJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

func sortViews(vs []view) {
	for i := 1; i < len(vs); i++ {
		for k := i; k > 0 && viewLess(vs[k], vs[k-1]); k-- {
			vs[k], vs[k-1] = vs[k-1], vs[k]
		}
	}
}

func viewLess(a, b view) bool {
	if a.Created != b.Created {
		return a.Created > b.Created
	}
	return a.ID < b.ID
}

func (s *Server) jobFor(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, j.view())
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	state, text, errMsg := j.snapshot()
	switch state {
	case StateDone:
		j.markFetched()
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, text)
	case StateFailed:
		j.markFetched()
		writeError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	case StateCanceled:
		j.markFetched()
		writeError(w, http.StatusGone, "job was canceled: %s", errMsg)
	default: // queued, running
		w.Header().Set("Retry-After", fmt.Sprintf("%d", s.pollRetryAfter(j)))
		writeJSON(w, http.StatusAccepted, j.view())
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobFor(r)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	if s.cancelJob(j, "canceled by client") {
		writeJSON(w, http.StatusAccepted, j.view())
		return
	}
	writeJSON(w, http.StatusOK, j.view()) // already terminal
}

// cancelJob requests cancellation; returns false when the job was already
// terminal. A queued job transitions immediately; a running one has its
// context canceled and transitions when the harness unwinds (event-loop
// granularity).
func (s *Server) cancelJob(j *job, reason string) bool {
	j.mu.Lock()
	switch j.state {
	case StateQueued:
		j.state = StateCanceled
		j.canceled = true
		j.errMsg = reason
		j.finished = time.Now()
		j.seq++
		close(j.done)
		j.mu.Unlock()
		s.journal.record(j)
		s.reg.AddUint("server/jobs_canceled", 1)
		s.noteChildTerminal(j)
		return true
	case StateRunning:
		j.canceled = true
		j.errMsg = reason
		cancel := j.cancel
		j.mu.Unlock()
		if cancel != nil {
			cancel()
		}
		return true
	default:
		j.mu.Unlock()
		return false
	}
}

// metricsResponse is the /v1/metrics body: the numeric snapshot plus an
// errors section carrying the persistence stack's last write failures
// verbatim (path included), so a full disk is diagnosable from one curl.
type metricsResponse struct {
	metrics.Snapshot
	Errors map[string]string `json:"errors,omitempty"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	resp := metricsResponse{Snapshot: s.snapshotMetrics(), Errors: map[string]string{}}
	if s.results != nil {
		if e := s.results.LastWriteError(); e != "" {
			resp.Errors["server/result_store/last_write_error"] = e
		}
	}
	if e := s.journal.lastWriteError(); e != "" {
		resp.Errors["server/journal/last_write_error"] = e
	}
	if len(resp.Errors) == 0 {
		resp.Errors = nil
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) snapshotMetrics() metrics.Snapshot {
	reg := metrics.NewRegistry()
	reg.Merge(s.reg)
	s.mu.Lock()
	reg.AddUint("server/jobs_tracked", uint64(len(s.jobs)))
	reg.AddUint("server/sweeps_tracked", uint64(len(s.sweeps)))
	s.mu.Unlock()
	reg.AddUint("server/queue_len", uint64(s.queue.len()))
	reg.SetMax("server/cache_degraded", bool01(s.cacheHealth.isDegraded()))
	reg.SetMax("server/journal_degraded", bool01(s.journalHealth.isDegraded()))
	if avg := s.avgRunNanos.Load(); avg > 0 {
		reg.SetMax("server/job_duration_ewma_s", time.Duration(avg).Seconds())
	}
	storeStats := func(prefix string, st *checkpoint.Store) {
		hits, misses, discards, writeErrs := st.Stats()
		reg.AddUint(prefix+"/hits", hits)
		reg.AddUint(prefix+"/misses", misses)
		reg.AddUint(prefix+"/discards", discards)
		reg.AddUint(prefix+"/write_errors", writeErrs)
		if n, err := st.Len(); err == nil {
			reg.AddUint(prefix+"/entries", uint64(n))
		}
	}
	if s.results != nil {
		storeStats("server/result_store", s.results)
	}
	if s.units != nil {
		storeStats("server/unit_store", s.units)
	}
	if s.journal != nil {
		storeStats("server/journal", s.journal.st)
	}
	return reg.Snapshot()
}

func bool01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// worker executes queued jobs until the queue is closed by Drain.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		s.runJob(j)
	}
}

func (s *Server) runJob(j *job) {
	j.mu.Lock()
	if j.state != StateQueued {
		j.mu.Unlock() // canceled while queued; nothing to do
		return
	}
	now := time.Now()
	if !j.deadline.IsZero() && !j.deadline.After(now) {
		// The client's deadline lapsed while the job sat in the queue:
		// running it now burns a worker on an answer nobody is waiting
		// for. Fail without executing.
		j.state = StateFailed
		j.errMsg = fmt.Sprintf("client deadline %s expired while queued",
			j.deadline.UTC().Format(time.RFC3339Nano))
		j.finished = now
		j.seq++
		close(j.done)
		j.mu.Unlock()
		s.journal.record(j)
		s.reg.AddUint("server/deadline_expired_queued", 1)
		s.reg.AddUint("server/jobs_failed", 1)
		s.noteChildTerminal(j)
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	j.state = StateRunning
	j.started = now
	j.cancel = cancel
	j.seq++
	cfg := j.cfg
	deadline := j.deadline
	j.mu.Unlock()
	defer cancel()

	// Server-side plumbing, applied after the canonical key was derived
	// from the client-visible spec: the shared per-unit checkpoint store
	// (so drained and crash-recovered jobs resume instead of recomputing)
	// and the default per-unit timeout.
	if s.unitsDir != "" {
		cfg.CheckpointDir = s.unitsDir
	}
	if cfg.RunTimeout == 0 && s.cfg.JobTimeout > 0 {
		cfg.RunTimeout = s.cfg.JobTimeout
	}

	// Deadline propagation: a client-supplied deadline bounds the
	// execution context at min(header deadline, start + RunTimeout), and
	// the effective value lands back in the job's status view so pollers
	// see exactly when the server will give up. Jobs without a header
	// deadline keep the unbounded context they have always had —
	// RunTimeout alone stays a per-unit budget inside the harness, never
	// a whole-job context bound.
	if !deadline.IsZero() {
		if cfg.RunTimeout > 0 {
			if cand := now.Add(cfg.RunTimeout); cand.Before(deadline) {
				deadline = cand
			}
		}
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, deadline)
		defer dcancel()
		j.mu.Lock()
		j.deadline = deadline
		j.seq++
		j.mu.Unlock()
	}
	s.journal.record(j)

	s.log.Info("job start", "job", j.id, "experiment", j.spec.Experiment)
	text, err := s.runWithRetries(ctx, j, cfg)

	// Persist before publishing the terminal state: a client (or a
	// restarted server) that observes "done" must find the cached bytes.
	if err == nil {
		s.persistResult(j.key, j.spec.Experiment, text)
	}

	j.mu.Lock()
	j.finished = time.Now()
	attempts := len(j.attempts)
	switch {
	case err == nil:
		j.state = StateDone
		j.text = text
		s.reg.AddUint("server/jobs_completed", 1)
	case j.canceled || errors.Is(err, context.Canceled):
		j.state = StateCanceled
		if j.errMsg == "" {
			j.errMsg = err.Error()
		}
		s.reg.AddUint("server/jobs_canceled", 1)
	default:
		j.state = StateFailed
		j.errMsg = err.Error()
		if attempts > 1 {
			j.errMsg = fmt.Sprintf("failed after %d attempts (see attempts history): %v", attempts, err)
		}
		if errors.Is(err, context.DeadlineExceeded) && !j.deadline.IsZero() {
			j.errMsg = fmt.Sprintf("client deadline %s exceeded mid-run: %v",
				j.deadline.UTC().Format(time.RFC3339Nano), err)
			s.reg.AddUint("server/deadline_expired_running", 1)
		}
		s.reg.AddUint("server/jobs_failed", 1)
	}
	j.seq++
	state, errMsg := j.state, j.errMsg
	dur := j.finished.Sub(j.started)
	close(j.done)
	j.mu.Unlock()
	s.journal.record(j)
	s.observeRunDuration(dur)
	s.noteChildTerminal(j)

	s.log.Info("job finish", "job", j.id, "state", state, "attempts", attempts,
		"dur_s", dur.Seconds(), "err", errMsg)
}

// runWithRetries executes the job's runner, retrying transient failures —
// injected I/O faults and internal panics the harness recovered
// (charonsim.ErrInternal) — with exponential backoff plus deterministic
// jitter, up to the configured budget. Every attempt lands in the job's
// (and journal's) attempt history; completed replay units persist in the
// per-unit checkpoint store across attempts, so a retry only re-executes
// what the failed attempt left unfinished.
func (s *Server) runWithRetries(ctx context.Context, j *job, cfg charonsim.Config) (string, error) {
	for attempt := 0; ; attempt++ {
		started := time.Now()
		text, err := s.cfg.runner(ctx, j.spec.Experiment, cfg)

		j.mu.Lock()
		j.attempts = append(j.attempts, attemptRecord{
			Started: started, Finished: time.Now(), Error: errString(err),
		})
		j.seq++
		canceled := j.canceled
		j.mu.Unlock()

		if err == nil || canceled || errors.Is(err, context.Canceled) || ctx.Err() != nil {
			return text, err
		}
		if !transientErr(err) || attempt >= s.cfg.RetryBudget {
			return text, err
		}

		delay := backoffDelay(s.cfg.RetryBackoff, attempt, j.id)
		s.reg.AddUint("server/jobs_retried", 1)
		s.log.Warn("job retry", "job", j.id, "attempt", attempt+1,
			"budget", s.cfg.RetryBudget, "backoff", delay.String(), "err", err.Error())
		s.journal.record(j) // attempt history survives a crash mid-backoff
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// transientErr classifies failures worth retrying: injected I/O faults
// (fault.ErrInjected) and internal panics the harness recovered into
// charonsim.ErrInternal. Validation errors, watchdog aborts, and
// cancellations are terminal.
func transientErr(err error) bool {
	return errors.Is(err, charonsim.ErrInternal) || errors.Is(err, fault.ErrInjected)
}

// backoffDelay is the wait before retry `attempt`: fault.Backoff with its
// jitter drawn deterministically from the job id and attempt number — the
// same job retries on the same schedule in every process, keeping chaos
// runs reproducible, while different jobs desynchronize.
func backoffDelay(base time.Duration, attempt int, id string) time.Duration {
	return fault.Backoff(base, attempt, fault.NewSource(id, int64(attempt)+1).Frac())
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// observeRunDuration feeds the shed estimator's EWMA (weight 1/4 on the
// newest observation).
func (s *Server) observeRunDuration(d time.Duration) {
	for {
		old := s.avgRunNanos.Load()
		ewma := int64(d)
		if old > 0 {
			ewma = (3*old + int64(d)) / 4
		}
		if s.avgRunNanos.CompareAndSwap(old, ewma) {
			return
		}
	}
}

// runExperiments is the real runner: the public harness entry points,
// rendered with the CLI's formatter so served reports are byte-identical
// to a charonsim invocation.
func runExperiments(ctx context.Context, experiment string, cfg charonsim.Config) (string, error) {
	var reports []*charonsim.Report
	var err error
	if experiment == "all" {
		reports, err = charonsim.RunAllContext(ctx, cfg)
	} else {
		var r *charonsim.Report
		r, err = charonsim.RunContext(ctx, experiment, cfg)
		if r != nil {
			reports = append(reports, r)
		}
	}
	if err != nil {
		return "", err
	}
	var b strings.Builder
	cli.RenderReports(&b, reports)
	return b.String(), nil
}

// Drain gracefully stops the server: admission closes (submissions get
// 503, readyz reports draining), queued and running jobs are given until
// ctx expires to finish, and on expiry the in-flight jobs are canceled —
// their completed replay units are already in the per-unit checkpoint
// store, so a restart resumes rather than recomputes. Drain returns nil
// when every job finished, or ctx's error when it had to cut jobs short.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	if dl, ok := ctx.Deadline(); ok {
		s.drainDeadline = dl
	}
	s.mu.Unlock()
	s.queue.close()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// Mark live jobs before cancelling so they land in "canceled"
		// with a drain-specific message, then cut the shared context.
		s.mu.Lock()
		for _, j := range s.jobs {
			j.mu.Lock()
			if j.state == StateQueued || j.state == StateRunning {
				j.canceled = true
				if j.errMsg == "" {
					j.errMsg = "server drain deadline expired; completed units are checkpointed"
				}
			}
			j.mu.Unlock()
		}
		s.mu.Unlock()
		s.baseCancel()
		<-done
		return fmt.Errorf("server: drain deadline expired; in-flight jobs aborted after checkpointing completed units: %w", ctx.Err())
	}
}

// Close is Drain with an already-expired deadline: cancel everything and
// wait for the workers to unwind. For tests and hard shutdown paths.
func (s *Server) Close() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_ = s.Drain(ctx)
}
