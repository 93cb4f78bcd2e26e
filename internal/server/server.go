// Package server implements charond, the long-running simulation service:
// an HTTP job API over the charonsim experiment harness. Jobs (an
// experiment id plus a charonsim.Config) are validated at admission,
// queued into a bounded admission queue with backpressure (429 +
// Retry-After when full), executed on a fixed worker pool through the
// public RunContext/RunAllContext entry points (which share recorded
// workloads within a job via experiments.Session), and cached: identical
// submissions are deduplicated single-flight in memory and served from
// the job journal's `done` records on disk, so a warm restart answers
// repeat jobs without simulating.
//
// Endpoints:
//
//	POST   /v1/jobs               submit (202; 200 on dedup/cache hit; 429 full; 503 draining)
//	GET    /v1/jobs               list tracked jobs
//	GET    /v1/jobs/{id}          job status (Retry-After while pending)
//	GET    /v1/jobs/{id}/result   rendered report (CLI byte-identical; 202 while pending)
//	DELETE /v1/jobs/{id}          cancel (context-propagated, event-loop granularity)
//	POST   /v1/sweeps             submit a parameter grid as one batch (see SweepSpec)
//	GET    /v1/sweeps             list tracked sweeps
//	GET    /v1/sweeps/{id}        aggregate status over the children (Retry-After while pending)
//	GET    /v1/sweeps/{id}/result the children's reports concatenated in grid order
//	GET    /healthz               liveness
//	GET    /readyz                readiness (503 while draining)
//	GET    /v1/metrics            server + cache counters (internal/metrics snapshot)
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"charonsim"
	"charonsim/internal/atomicio"
	"charonsim/internal/checkpoint"
	"charonsim/internal/cli"
	"charonsim/internal/metrics"
)

// Config configures a Server. There is no retry knob: the simulator is
// deterministic, so a job that fails once fails the same way on every
// re-run, and each job runs its runner exactly once.
type Config struct {
	// Workers is the number of concurrent job executors (default 2). Each
	// job additionally fans its simulation units out per its own
	// Parallelism knob, so keep Workers small.
	Workers int
	// QueueDepth bounds the admission queue (default 16). A full queue
	// rejects submissions with 429 + Retry-After.
	QueueDepth int
	// CacheDir, when non-empty, enables the on-disk layer: every job is
	// journaled in CacheDir/journal (checkpoint-backed, checksummed,
	// atomic), where a completed job's `done` record holds its report and
	// answers identical resubmissions across restarts, and jobs run with
	// CacheDir/units as their per-unit checkpoint store so
	// partially-completed work survives a drain. Empty keeps everything in
	// memory only (dedup still works within the process lifetime).
	CacheDir string
	// JobTimeout, when positive, is the default per-unit RunTimeout
	// applied to jobs that do not set run_timeout themselves. It reuses
	// the existing RunTimeout plumbing: the replay watchdog heartbeat.
	JobTimeout time.Duration
	// MaxJobs bounds the in-memory job table and, separately, the sweep
	// table (default 1024 each); when exceeded, the oldest terminal
	// entries are evicted. A done job's report stays servable from its
	// journal record.
	MaxJobs int
	// Log receives structured request and lifecycle logs (nil = discard).
	Log *slog.Logger

	// runner executes one job and returns the rendered report. Tests
	// substitute a controllable stub; nil selects the real experiment
	// harness.
	runner func(ctx context.Context, experiment string, cfg charonsim.Config) (string, error)
	// fsys overrides the filesystem under the persistence stack (journal
	// + unit store); tests inject an atomicio.FailFS here. nil = real disk.
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
	cfg     Config
	log     *slog.Logger
	reg     *metrics.Registry
	units   *checkpoint.Store // per-unit store every job replays through; nil without CacheDir
	journal *journal          // job log and result cache; nil without CacheDir

	avgRunNanos atomic.Int64 // EWMA of completed job durations (Retry-After estimator)

	baseCtx    context.Context // parent of every job context
	baseCancel context.CancelFunc

	mu            sync.Mutex
	jobs          map[string]*job
	sweeps        map[string]*sweep
	queue         *jobQueue
	draining      bool
	drainDeadline time.Time      // Drain's ctx deadline; sizes the draining 503's Retry-After
	wg            sync.WaitGroup // worker goroutines
}

// jobQueue is the admission queue: an unbounded FIFO the workers pop
// from. The client-facing QueueDepth bound is enforced by an explicit len
// check in the admission gate (gateLocked's 429), not by the queue's
// capacity — journal recovery and sweep expansion must always be
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
// their per-unit checkpoints) ahead of new submissions; `done` records
// stay as the result cache, and the other terminal records are
// garbage-collected.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		log:    cfg.Log,
		reg:    metrics.NewRegistry(),
		jobs:   map[string]*job{},
		sweeps: map[string]*sweep{},
	}
	if cfg.CacheDir != "" {
		var err error
		if s.units, err = checkpoint.OpenFS(filepath.Join(cfg.CacheDir, "units"), cfg.fsys); err != nil {
			return nil, fmt.Errorf("server: unit store: %w", err)
		}
		if s.journal, err = openJournal(filepath.Join(cfg.CacheDir, "journal"), cfg.fsys, cfg.Log, s.reg); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	s.queue = newJobQueue()
	s.recoverJournal()

	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// recoverJournal rebuilds the unfinished work a dead process left behind.
// Each unfinished job record is re-admitted under its original id through
// the admission path, without the gate: crash-recovered work is never
// dropped for lack of a queue slot. A `done` record stays on disk, where
// admission finds it, and is not rehydrated into the job table. A sweep
// manifest is rebuilt next, under the same s.mu hold, exactly when one of
// its children was just re-admitted (recoverSweepsLocked); every other
// manifest, and every failed, canceled or unusable record, is
// garbage-collected.
func (s *Server) recoverJournal() {
	jobs, sweeps, gcKeys, err := s.journal.replay()
	if err != nil {
		s.log.Warn("journal: replay scan failed; continuing without recovery", "err", err)
		return
	}
	s.mu.Lock()
	for _, rec := range jobs {
		// A record must still resolve to the key it is stored under; one
		// the job grammar moved under is collected, never replayed or
		// served wrong.
		cfg, key, rerr := rec.Spec.Resolve()
		if rerr != nil || key != rec.Key {
			s.log.Warn("journal: dropping unresolvable job", "job", rec.ID, "err", rerr)
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		if !rec.unfinished() {
			continue
		}
		j := newJob(rec.Spec, cfg, key, time.Time{})
		j.created, j.recovered = rec.Created, rec.Recovered+1
		if _, queued, _ := s.admitLocked(j, false); !queued {
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		s.reg.AddUint("server/journal_recovered", 1)
		s.log.Info("journal: recovered job", "job", j.id,
			"experiment", j.spec.Experiment, "generation", j.recovered)
	}
	gcKeys = append(gcKeys, s.recoverSweepsLocked(sweeps)...)
	s.mu.Unlock()
	if n := s.journal.gc(gcKeys); n > 0 {
		s.reg.AddUint("server/journal_gc", uint64(n))
		s.log.Info("journal: collected terminal records", "n", n)
	}
}

// Metrics exposes the server's registry (tests and the /v1/metrics
// endpoint read it).
func (s *Server) Metrics() *metrics.Registry { return s.reg }

// Handler returns the HTTP API with request logging applied.
func (s *Server) Handler() http.Handler {
	jobs := resource[*job, view]{s: s, noun: "job", table: s.jobs}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	jobs.register(mux)
	mux.HandleFunc("DELETE /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		j, ok := jobs.lookup(w, r)
		if !ok {
			return
		}
		status := http.StatusOK // already terminal
		if s.cancelJob(j, "canceled by client") {
			status = http.StatusAccepted
		}
		writeJSON(w, status, j.view())
	})
	mux.HandleFunc("POST /v1/sweeps", s.handleSweepSubmit)
	resource[*sweep, sweepView]{s: s, noun: "sweep", table: s.sweeps}.register(mux)
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

// readSpec decodes a submission body into spec, checks it with valid, and
// reads the client deadline header (zero when absent). On failure it
// writes the answer — 413 for an oversized body, 400 for a malformed or
// invalid spec or deadline header, 504 for a deadline already past — and
// returns false.
func (s *Server) readSpec(w http.ResponseWriter, r *http.Request, what string, spec any, valid func() error) (deadline time.Time, ok bool) {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "%s spec exceeds the %d-byte limit", what, maxBodyBytes)
		} else {
			writeError(w, http.StatusBadRequest, "decoding %s spec: %v", what, err)
		}
		return deadline, false
	}
	if err := valid(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid %s spec: %v", what, err)
		return deadline, false
	}
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return deadline, true
	}
	deadline, err := time.Parse(time.RFC3339Nano, raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, "invalid %s header %q: %v (want RFC3339Nano, e.g. %q)",
			DeadlineHeader, raw, err, time.Now().UTC().Format(time.RFC3339Nano))
		return deadline, false
	}
	if !deadline.IsZero() && !deadline.After(time.Now()) {
		s.reg.AddUint("server/deadline_expired_rejects", 1)
		writeError(w, http.StatusGatewayTimeout,
			"deadline %s already expired at admission; not queueing doomed work",
			deadline.UTC().Format(time.RFC3339Nano))
		return deadline, false
	}
	return deadline, true
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	var cfg charonsim.Config
	var key string
	deadline, ok := s.readSpec(w, r, "job", &spec, func() (err error) {
		cfg, key, err = spec.Resolve()
		return err
	})
	if !ok {
		return
	}
	s.mu.Lock()
	j, queued, rej := s.admitLocked(newJob(spec, cfg, key, deadline), true)
	s.mu.Unlock()
	if rej != nil {
		rej.write(w)
		return
	}
	status := http.StatusOK
	if queued {
		status = http.StatusAccepted
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	writeJSON(w, status, j.view())
}

// admitLocked is charond's one admission path: POST /v1/jobs, every sweep
// child and journal recovery hand it a fresh job from newJob, and it
//
//  1. reuses a live or done job with the same canonical key — single-flight
//     dedup, where the first submitter's deadline governs, so a duplicate
//     POST (a client retry after an ambiguous failure) cannot loosen or
//     tighten work already in flight;
//  2. otherwise completes the job from the result cache: the journal's
//     `done` record under the job's key, which an earlier process over the
//     same directory may have written;
//  3. otherwise, when gate is set, passes the admission gate (gateLocked);
//  4. then journals the job — before any 202 leaves, so a crash at any
//     later moment leaves a record to replay — and enqueues it.
//
// It returns the job that answers — j, or the one reused — and whether j
// was queued. A failed or canceled job under the same key is replaced only at step 2
// or 4, so a refused resubmission leaves it readable.
//
// server/jobs_submitted counts the fresh jobs admitted at step 2 or 4,
// whichever entry point brought them; a reused job and a refused
// submission count nothing. Callers hold s.mu.
func (s *Server) admitLocked(j *job, gate bool) (answer *job, queued bool, rej *rejection) {
	if old, ok := s.jobs[j.id]; ok {
		if state, _, _ := old.snapshot(); reusable(state) {
			s.reg.AddUint("server/dedup_hits", 1)
			if state == StateDone {
				s.reg.AddUint("server/cache_hits", 1)
			}
			return old, false, nil
		}
	}
	if text, ok := s.journal.doneText(j.key); ok {
		j.state, j.cached, j.text, j.finished = StateDone, true, text, time.Now()
		close(j.done)
		insertLocked(s.jobs, j.id, j, s.cfg.MaxJobs)
		s.reg.AddUint("server/cache_hits", 1)
		s.reg.AddUint("server/jobs_submitted", 1)
		return j, false, nil
	}
	s.reg.AddUint("server/cache_misses", 1)
	if gate {
		if rej := s.gateLocked("jobs"); rej != nil {
			return nil, false, rej
		}
	}
	s.reg.AddUint("server/jobs_submitted", 1)
	insertLocked(s.jobs, j.id, j, s.cfg.MaxJobs)
	s.journal.record(j)
	s.queue.push(j)
	s.reg.SetMax("server/queue_high_water", float64(s.queue.len()))
	return j, true, nil
}

// reusable reports whether a tracked job or sweep in state answers a
// resubmission of its key; a failed or canceled one is replaced instead.
func reusable(state string) bool {
	return state != StateFailed && state != StateCanceled
}

// rejection is a submission the admission gate refused.
type rejection struct {
	status     int
	retryAfter int // Retry-After hint, in seconds
	msg        string
}

func (rej *rejection) write(w http.ResponseWriter) {
	w.Header().Set("Retry-After", strconv.Itoa(rej.retryAfter))
	writeError(w, rej.status, "%s", rej.msg)
}

// gateLocked is admission's gate: a draining server refuses new work with
// 503, a full queue with 429, each with a Retry-After hint. The internal
// queue is unbounded (journal recovery and sweep expansion enqueue past
// the depth), so the client-facing bound is this explicit length check.
// Callers hold s.mu.
func (s *Server) gateLocked(what string) *rejection {
	if s.draining {
		return &rejection{http.StatusServiceUnavailable, s.drainRetryAfterLocked(),
			"server is draining; not accepting new " + what}
	}
	if s.queue.len() >= s.cfg.QueueDepth {
		s.reg.AddUint("server/queue_rejected", 1)
		return &rejection{http.StatusTooManyRequests, 1,
			fmt.Sprintf("admission queue full (%d queued); retry later", s.cfg.QueueDepth)}
	}
	return nil
}

// estimatedWait predicts how long a job with `ahead` queued jobs in
// front of it waits for a worker: ahead times the observed mean job
// duration, spread over the worker pool. Zero until the first job
// completes — the hint rests on evidence, not guesses.
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

// insertLocked adds v to a job or sweep table under id and evicts
// terminal entries past the retention bound. Eviction prefers terminal
// entries whose result has already been fetched (oldest first) and only
// then falls back to unfetched terminal ones — a done job nobody has read
// yet still owes its submitter an answer, so it must never be displaced
// by older ones that already delivered theirs. Live entries are never
// evicted; with nothing terminal the table grows. Callers hold s.mu.
func insertLocked[T tracked[V], V any](table map[string]T, id string, v T, bound int) {
	table[id] = v
	for len(table) > bound {
		victim, found := "", false
		var victimFetched bool
		var victimCreated time.Time
		for cid, cand := range table {
			terminal, fetched, created := cand.retention()
			if !terminal {
				continue
			}
			if !found || fetched && !victimFetched ||
				fetched == victimFetched && created.Before(victimCreated) {
				victim, found, victimFetched, victimCreated = cid, true, fetched, created
			}
		}
		if !found {
			return
		}
		delete(table, victim)
	}
}

// cancelJob requests cancellation; returns false when the job was already
// terminal. A queued job settles as canceled at once; a running one has its
// context canceled and settles when the harness unwinds (event-loop
// granularity). The first recorded reason — a DELETE's or a drain's — is
// the one a canceled job keeps.
func (s *Server) cancelJob(j *job, reason string) bool {
	if s.settle(j, StateQueued, StateCanceled, "", reason) {
		return true
	}
	j.mu.Lock()
	if j.state != StateRunning {
		j.mu.Unlock()
		return false
	}
	j.canceled = true
	if j.errMsg == "" {
		j.errMsg = reason
	}
	cancel := j.cancel
	j.mu.Unlock()
	cancel()
	return true
}

// settledCounters names the counter each terminal state bumps.
var settledCounters = map[string]string{
	StateDone:     "server/jobs_completed",
	StateFailed:   "server/jobs_failed",
	StateCanceled: "server/jobs_canceled",
}

// settle is every terminal transition of an admitted job — run to
// completion, failed, canceled while queued or running, or expired in the
// queue. It moves j to the terminal state `to` only while j is still in
// state `from`, and reports whether it did, so of two racing transitions
// exactly one lands. A done job gets text and an empty error (a
// cancellation that lost the race to completion leaves no reason behind);
// a failed job gets msg; a canceled job keeps the reason recorded first
// by DELETE or drain, else msg.
//
// The transition is journaled before anyone can see it: the record, a
// done job's report included, is written under j.mu and before done
// closes. So a client that saw "done" finds those bytes after a crash,
// and a crash before the write re-runs a job that nobody saw finish. The
// transition is then counted and fed to the run-time estimator when the
// job had started. A sweep needs no notice: it reads its state from its
// children.
func (s *Server) settle(j *job, from, to, text, msg string) bool {
	j.mu.Lock()
	if j.state != from {
		j.mu.Unlock()
		return false
	}
	j.state, j.finished = to, time.Now()
	switch {
	case to == StateDone:
		j.text, j.errMsg = text, ""
	case to == StateFailed, j.errMsg == "":
		j.errMsg = msg
	}
	s.journal.record(j)
	s.reg.AddUint(settledCounters[to], 1) // before done closes, so a waiter sees the count
	close(j.done)
	ran, errMsg := !j.started.IsZero(), j.errMsg
	var dur time.Duration
	if ran {
		dur = j.finished.Sub(j.started)
	}
	j.mu.Unlock()

	if ran {
		s.observeRunDuration(dur)
	}
	s.log.Info("job finish", "job", j.id, "state", to, "dur_s", dur.Seconds(), "err", errMsg)
	return true
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
	if e := s.units.LastWriteError(); e != "" {
		resp.Errors["server/unit_store/last_write_error"] = e
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
	reg.SetMax("server/journal_degraded", bool01(s.journal.isDegraded()))
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
		// for. Fail without executing, unless a DELETE settles it first.
		msg := fmt.Sprintf("client deadline %s expired while queued",
			j.deadline.UTC().Format(time.RFC3339Nano))
		j.mu.Unlock()
		if s.settle(j, StateQueued, StateFailed, "", msg) {
			s.reg.AddUint("server/deadline_expired_queued", 1)
		}
		return
	}
	// Server-side plumbing, applied after the canonical key was derived
	// from the client-visible spec: the shared per-unit checkpoint store,
	// carried on the job's context (so drained and crash-recovered jobs
	// resume instead of recomputing, and every job's hits and write
	// errors land in the server's counters), and the default per-unit
	// timeout.
	ctx, cancel := context.WithCancel(s.baseCtx)
	defer cancel()
	if s.units != nil {
		ctx = checkpoint.WithStore(ctx, s.units)
	}
	cfg := j.cfg
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
	deadline := j.deadline
	if !deadline.IsZero() {
		if cfg.RunTimeout > 0 {
			if cand := now.Add(cfg.RunTimeout); cand.Before(deadline) {
				deadline = cand
			}
		}
		var dcancel context.CancelFunc
		ctx, dcancel = context.WithDeadline(ctx, deadline)
		defer dcancel()
	}
	j.state, j.started, j.cancel, j.deadline = StateRunning, now, cancel, deadline
	s.journal.record(j)
	j.mu.Unlock()

	s.log.Info("job start", "job", j.id, "experiment", j.spec.Experiment)
	text, err := s.cfg.runner(ctx, j.spec.Experiment, cfg)

	j.mu.Lock()
	canceled := j.canceled
	j.mu.Unlock()
	to, msg := StateDone, ""
	switch {
	case err == nil:
	case canceled || errors.Is(err, context.Canceled):
		to, msg = StateCanceled, err.Error()
	case errors.Is(err, context.DeadlineExceeded) && !deadline.IsZero():
		to, msg = StateFailed, fmt.Sprintf("client deadline %s exceeded mid-run: %v",
			deadline.UTC().Format(time.RFC3339Nano), err)
		s.reg.AddUint("server/deadline_expired_running", 1)
	default:
		to, msg = StateFailed, err.Error()
	}
	s.settle(j, StateRunning, to, text, msg)
}

// observeRunDuration feeds the Retry-After estimator's EWMA (weight 1/4 on the
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
