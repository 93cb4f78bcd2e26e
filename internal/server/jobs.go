package server

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"charonsim"
	"charonsim/internal/checkpoint"
	"charonsim/internal/cli"
	"charonsim/internal/experiments"
)

// jobSchema versions the canonical job descriptor; bump it whenever it
// changes meaning, so a warm restart against an old cache directory
// misses cleanly instead of serving stale responses.
const jobSchema = 5

// JobSpec is the wire format of a job submission (POST /v1/jobs). It maps
// onto charonsim.Config plus the experiment id; durations travel as
// strings in time.ParseDuration syntax ("250ms", "2m"). Server-side paths
// (metrics/trace exports, checkpoint directories) are deliberately not
// client-settable: the server owns its filesystem.
type JobSpec struct {
	// Experiment is an experiment id from charonsim.Experiments(), or
	// "all" for the full suite.
	Experiment string `json:"experiment"`

	Threads     int      `json:"threads,omitempty"`
	HeapFactor  float64  `json:"heap_factor,omitempty"`
	Workloads   []string `json:"workloads,omitempty"`
	Parallelism int      `json:"parallelism,omitempty"`
	RunTimeout  string   `json:"run_timeout,omitempty"`
}

// Resolve validates the spec and returns the charonsim.Config it maps to
// plus the canonical descriptor key the job is deduplicated and cached
// under. The key covers every result-affecting knob with CLI-visible
// defaults resolved (threads 0 ⇒ 8, factor 0 ⇒ 1.5, empty workloads ⇒
// all six), so {"experiment":"fig12"} and an explicit
// {"experiment":"fig12","threads":8,...} are the same job.
func (sp JobSpec) Resolve() (charonsim.Config, string, error) {
	var cfg charonsim.Config
	if sp.Experiment == "" {
		return cfg, "", fmt.Errorf("missing experiment id (one of %v, or \"all\")", charonsim.Experiments())
	}
	if sp.Experiment != "all" && !slices.Contains(charonsim.Experiments(), sp.Experiment) {
		return cfg, "", fmt.Errorf("unknown experiment %q (have %v, or \"all\")", sp.Experiment, charonsim.Experiments())
	}
	timeout, err := parseDuration("run_timeout", sp.RunTimeout)
	if err != nil {
		return cfg, "", err
	}
	workloads, err := cleanWorkloads(sp.Workloads)
	if err != nil {
		return cfg, "", err
	}
	cfg = charonsim.Config{
		Threads: sp.Threads, HeapFactor: sp.HeapFactor,
		Workloads:   workloads,
		Parallelism: sp.Parallelism,
		RunTimeout:  timeout,
	}
	if err := cfg.Validate(); err != nil {
		return cfg, "", err
	}
	return cfg, canonicalKey(sp.Experiment, cfg), nil
}

// cleanWorkloads trims a spec's workload names and drops empty ones. A
// non-empty list that names nothing is an error rather than an empty
// list, which would silently mean all six workloads.
func cleanWorkloads(raw []string) ([]string, error) {
	names := cli.CleanWorkloads(raw)
	if len(raw) > 0 && len(names) == 0 {
		return nil, fmt.Errorf("workloads %q contains no workload names", raw)
	}
	return names, nil
}

func parseDuration(field, s string) (time.Duration, error) {
	if s == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, fmt.Errorf("%s: %w (want Go duration syntax, e.g. \"250ms\")", field, err)
	}
	return d, nil
}

// canonicalKey renders the fully-resolved job descriptor as the canonical
// string the journal stores the job under and job ids hash. Field-by-field,
// with the threads, factor and workloads defaults resolved by the
// experiment layer; any knob change — including ones like Parallelism that
// are documented not to change bytes — misses conservatively, mirroring
// the checkpoint layer's invalidation rule. par= is the spec's raw value:
// its resolved form is the host's GOMAXPROCS.
func canonicalKey(experiment string, cfg charonsim.Config) string {
	r := experiments.Config{Threads: cfg.Threads, Factor: cfg.HeapFactor,
		Workloads: cfg.Workloads}.WithDefaults()
	return fmt.Sprintf(
		"job/v%d|exp=%s|threads=%d|factor=%.6g|wl=%s|par=%d|timeout=%d",
		jobSchema, experiment, r.Threads, r.Factor, strings.Join(r.Workloads, ","), cfg.Parallelism,
		cfg.RunTimeout.Nanoseconds())
}

// jobID derives the externally-visible job id from the canonical key via
// the checkpoint layer's content addressing — the same submission always
// yields the same id, on any charond instance.
func jobID(key string) string { return checkpoint.KeyHash(key)[:16] }

// Job states.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// job is one tracked submission. The id is the hash of the canonical
// descriptor, so identical submissions share a job (single-flight dedup).
type job struct {
	id   string
	key  string
	spec JobSpec
	cfg  charonsim.Config // resolved; server-side fields filled at run time

	mu       sync.Mutex
	state    string
	cached   bool // report served from the journal's done record, not computed
	fetched  bool // terminal answer delivered to at least one result fetch
	created  time.Time
	started  time.Time
	finished time.Time
	deadline time.Time // effective execution deadline (zero = unbounded); from X-Charon-Deadline, tightened by RunTimeout at start
	text     string    // rendered report (CLI format, no wall-clock trailer)
	errMsg   string
	cancel   context.CancelFunc // non-nil while running
	canceled bool               // cancellation requested (DELETE or drain)
	done     chan struct{}      // closed on any terminal state

	recovered int // journal crash-replay generations (0 = never crashed)
}

// newJob builds a queued job for admitLocked from a resolved descriptor.
func newJob(spec JobSpec, cfg charonsim.Config, key string, deadline time.Time) *job {
	return &job{id: jobID(key), key: key, spec: spec, cfg: cfg, deadline: deadline,
		state: StateQueued, created: time.Now(), done: make(chan struct{})}
}

func (j *job) retention() (terminal, fetched bool, created time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return terminalState(j.state), j.fetched, j.created
}

func (j *job) members() []*job { return []*job{j} }

// view is the JSON representation of a job.
type view struct {
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
	Self       string `json:"self"`
	Result     string `json:"result"`
}

func (j *job) view() view {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := view{
		ID: j.id, State: j.state, Experiment: j.spec.Experiment,
		Cached: j.cached, Error: j.errMsg,
		Recovered: j.recovered,
		Self:      "/v1/jobs/" + j.id,
		Result:    "/v1/jobs/" + j.id + "/result",
	}
	if !j.created.IsZero() {
		v.Created = j.created.UTC().Format(time.RFC3339Nano)
	}
	if !j.started.IsZero() {
		v.Started = j.started.UTC().Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.UTC().Format(time.RFC3339Nano)
	}
	if !j.deadline.IsZero() {
		v.Deadline = j.deadline.UTC().Format(time.RFC3339Nano)
	}
	return v
}

// snapshot returns the fields the result endpoint needs, consistently.
func (j *job) snapshot() (state, text, errMsg string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state, j.text, j.errMsg
}

// markFetched records that the job's terminal answer reached a caller;
// eviction prefers fetched jobs, so unread results survive retention
// pressure longer.
func (j *job) markFetched() {
	j.mu.Lock()
	j.fetched = true
	j.mu.Unlock()
}

// terminalState reports whether state is a final one.
func terminalState(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCanceled
}
