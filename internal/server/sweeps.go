package server

import (
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"charonsim"
	"charonsim/internal/cli"
)

// sweepSchema versions the sweep grid grammar; it feeds the canonical
// sweep key, so bumping it makes every old sweep id miss cleanly.
const sweepSchema = 1

// maxSweepChildren bounds one sweep's grid: a spec expanding past it is
// rejected at admission rather than flooding the worker pool. The bound
// comfortably covers the paper's full evaluation grid (6 workloads x a
// handful of heap factors and thread counts).
const maxSweepChildren = 256

// journalKindSweep tags sweep-manifest records in the shared journal
// store; untagged records are plain jobs.
const journalKindSweep = "sweep"

// SweepStateActive is the journal state of a sweep that still owes a
// combined report; terminal manifests carry the aggregate job state
// ("done"/"failed"/"canceled") instead and are garbage-collected at the
// next boot.
const SweepStateActive = "active"

// SweepSpec is the wire format of a batch submission (POST /v1/sweeps):
// a parameter grid over the paper's evaluation axes plus the shared
// knobs every child inherits. The server expands it into one child job
// descriptor per grid point — experiments x workloads x heap_factors x
// threads, in that nesting order — and each child flows through the
// exact same admission queue, single-flight dedup, result cache, and
// journal as an individually POSTed job with the same descriptor.
type SweepSpec struct {
	// Experiments lists experiment ids (or "all"); required, outermost
	// grid axis.
	Experiments []string `json:"experiments"`
	// Workloads fans one child per workload code. Empty runs each
	// experiment over its default full workload set (a single grid point
	// on this axis).
	Workloads []string `json:"workloads,omitempty"`
	// HeapFactors fans one child per heap overprovisioning factor.
	// Empty means the server default (1.5).
	HeapFactors []float64 `json:"heap_factors,omitempty"`
	// Threads fans one child per GC thread count. Empty means the
	// server default (8).
	Threads []int `json:"threads,omitempty"`

	// Shared knobs, copied verbatim into every child descriptor.
	Parallelism   int     `json:"parallelism,omitempty"`
	FaultRate     float64 `json:"fault_rate,omitempty"`
	FaultSeed     int64   `json:"fault_seed,omitempty"`
	OffloadDeadln string  `json:"offload_deadline,omitempty"`
	RunTimeout    string  `json:"run_timeout,omitempty"`
}

// sweepChild is one expanded grid point: the child's job descriptor plus
// its resolved config and canonical identity.
type sweepChild struct {
	spec JobSpec
	cfg  charonsim.Config
	key  string
}

// Expand validates the sweep spec and returns its grid points in
// deterministic order (experiments, then workloads, then heap factors,
// then threads — outermost to innermost) plus the canonical sweep key.
// Every child descriptor is fully resolved through the job grammar, so a
// sweep child and an individually submitted job with the same knobs are
// the same job: same key, same id, same cache entry. The key is the
// ordered concatenation of the child keys — two sweeps are the same
// sweep exactly when they expand to the same children in the same order.
func (sp SweepSpec) Expand() ([]sweepChild, string, error) {
	if len(sp.Experiments) == 0 {
		return nil, "", fmt.Errorf("missing experiments list (each one of %v, or \"all\")", charonsim.Experiments())
	}
	workloads := cli.CleanWorkloads(sp.Workloads)
	if len(sp.Workloads) > 0 && len(workloads) == 0 {
		return nil, "", fmt.Errorf("workloads %v contains no workload names", sp.Workloads)
	}
	factors := sp.HeapFactors
	if len(factors) == 0 {
		factors = []float64{0} // server default (1.5) resolved by the job grammar
	}
	threads := sp.Threads
	if len(threads) == 0 {
		threads = []int{0} // server default (8)
	}
	points := len(sp.Experiments) * max(1, len(workloads)) * len(factors) * len(threads)
	if points > maxSweepChildren {
		return nil, "", fmt.Errorf("sweep expands to %d children, above the %d bound; split the grid", points, maxSweepChildren)
	}

	var children []sweepChild
	seen := map[string]int{}
	add := func(child JobSpec) error {
		cfg, key, err := child.Resolve()
		if err != nil {
			return err
		}
		if prev, dup := seen[key]; dup {
			return fmt.Errorf("duplicate grid point: children %d and %d are the same job (%s)", prev, len(children), key)
		}
		seen[key] = len(children)
		children = append(children, sweepChild{spec: child, cfg: cfg, key: key})
		return nil
	}
	for _, exp := range sp.Experiments {
		wls := [][]string{nil}
		if len(workloads) > 0 {
			wls = wls[:0]
			for _, w := range workloads {
				wls = append(wls, []string{w})
			}
		}
		for _, wl := range wls {
			for _, f := range factors {
				for _, t := range threads {
					child := JobSpec{
						Experiment: exp, Workloads: wl,
						HeapFactor: f, Threads: t,
						Parallelism:   sp.Parallelism,
						FaultRate:     sp.FaultRate,
						FaultSeed:     sp.FaultSeed,
						OffloadDeadln: sp.OffloadDeadln,
						RunTimeout:    sp.RunTimeout,
					}
					if err := add(child); err != nil {
						return nil, "", err
					}
				}
			}
		}
	}
	keys := make([]string, len(children))
	for i, c := range children {
		keys[i] = c.key
	}
	key := fmt.Sprintf("sweep/v%d|%s", sweepSchema, strings.Join(keys, "||"))
	return children, key, nil
}

// sweep is one tracked batch: an ordered set of child jobs sharing the
// server's dedup/cache/journal machinery. The children are fixed at
// admission (or recovery) — a later individual resubmission of a failed
// child descriptor starts a fresh job but does not splice into an
// existing sweep; resubmitting the sweep itself does (failed sweeps are
// replaced whole, like failed jobs).
type sweep struct {
	id      string
	key     string
	spec    SweepSpec
	created time.Time

	children []*job          // grid order; immutable after construction
	childIDs map[string]bool // membership index for noteChildTerminal

	mu         sync.Mutex
	recovered  int    // journal crash-replay generations
	seq        uint64 // orders journal manifest writes
	finalState string // terminal aggregate state once journaled ("" while active)
	fetched    bool   // terminal answer delivered to at least one result fetch
}

func newSweep(key string, spec SweepSpec, created time.Time) *sweep {
	return &sweep{id: jobID(key), key: key, spec: spec, created: created, childIDs: map[string]bool{}}
}

func (sw *sweep) contains(jobID string) bool { return sw.childIDs[jobID] }

func (sw *sweep) retention() (terminal, fetched bool, created time.Time) {
	terminal = terminalState(aggregateState(sw.counts()))
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return terminal, sw.fetched, sw.created
}

func (sw *sweep) members() []*job { return sw.children }

func (sw *sweep) markFetched() {
	sw.mu.Lock()
	sw.fetched = true
	sw.mu.Unlock()
	for _, j := range sw.children {
		j.markFetched()
	}
}

// sweepCounts is the per-state census of a sweep's children.
type sweepCounts struct {
	queued, running, done, failed, canceled int
}

func (c sweepCounts) total() int {
	return c.queued + c.running + c.done + c.failed + c.canceled
}

// pending reports whether any child still owes a terminal state.
func (c sweepCounts) pending() bool { return c.queued+c.running > 0 }

// counts snapshots every child's state.
func (sw *sweep) counts() sweepCounts {
	var c sweepCounts
	for _, j := range sw.children {
		state, _, _ := j.snapshot()
		switch state {
		case StateQueued:
			c.queued++
		case StateRunning:
			c.running++
		case StateDone:
			c.done++
		case StateFailed:
			c.failed++
		case StateCanceled:
			c.canceled++
		}
	}
	return c
}

// aggregateState folds the census into one job-style state: queued until
// any child makes progress, running while any child is non-terminal,
// then failed > canceled > done by severity.
func aggregateState(c sweepCounts) string {
	switch {
	case c.pending() && c.running == 0 && c.done+c.failed+c.canceled == 0:
		return StateQueued
	case c.pending():
		return StateRunning
	case c.failed > 0:
		return StateFailed
	case c.canceled > 0:
		return StateCanceled
	default:
		return StateDone
	}
}

// sweepRecord is the journaled sweep manifest: membership (the spec
// re-expands to the same ordered children, hence the same child ids on
// any process) plus lifecycle state. Child jobs journal their own
// transitions; the manifest is written at admission, at recovery, and
// once at terminal aggregation.
type sweepRecord struct {
	Schema    int       `json:"schema"`
	Kind      string    `json:"kind"`
	ID        string    `json:"id"`
	Key       string    `json:"key"`
	Spec      SweepSpec `json:"spec"`
	State     string    `json:"state"`
	Created   time.Time `json:"created"`
	Updated   time.Time `json:"updated"`
	ChildIDs  []string  `json:"child_ids"`
	Recovered int       `json:"recovered,omitempty"`
}

// journalSweep durably writes sw's manifest in state. The manifest is
// membership, not progress: child jobs journal their own transitions, so
// it is written only at admission, recovery and completion.
func (s *Server) journalSweep(sw *sweep, state string) {
	ids := make([]string, len(sw.children))
	for i, j := range sw.children {
		ids[i] = j.id
	}
	sw.mu.Lock()
	sw.seq++
	rec := sweepRecord{
		Schema: journalSchema, Kind: journalKindSweep,
		ID: sw.id, Key: sw.key, Spec: sw.spec, State: state,
		Created: sw.created, Updated: time.Now(),
		ChildIDs: ids, Recovered: sw.recovered,
	}
	seq := sw.seq
	sw.mu.Unlock()
	s.journal.put(sw.id, sw.key, seq, rec)
}

// sweepChildView is one child's row in the sweep status document.
type sweepChildView struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Experiment string `json:"experiment"`
	Workloads  string `json:"workloads,omitempty"`
	Cached     bool   `json:"cached,omitempty"`
	Error      string `json:"error,omitempty"`
	Self       string `json:"self"`
}

// sweepView is the JSON representation of a sweep: the aggregate state,
// a per-state census, and the ordered children.
type sweepView struct {
	ID        string           `json:"id"`
	State     string           `json:"state"`
	Total     int              `json:"total"`
	Counts    map[string]int   `json:"counts"`
	Created   string           `json:"created,omitempty"`
	Recovered int              `json:"recovered,omitempty"`
	Children  []sweepChildView `json:"children"`
	Self      string           `json:"self"`
	Result    string           `json:"result"`
}

func (sw *sweep) view() sweepView {
	c := sw.counts()
	sw.mu.Lock()
	recovered := sw.recovered
	sw.mu.Unlock()
	v := sweepView{
		ID: sw.id, State: aggregateState(c), Total: c.total(),
		Counts: map[string]int{
			StateQueued: c.queued, StateRunning: c.running,
			StateDone: c.done, StateFailed: c.failed, StateCanceled: c.canceled,
		},
		Created:   sw.created.UTC().Format(time.RFC3339Nano),
		Recovered: recovered,
		Self:      "/v1/sweeps/" + sw.id,
		Result:    "/v1/sweeps/" + sw.id + "/result",
	}
	for _, j := range sw.children {
		jv := j.view()
		v.Children = append(v.Children, sweepChildView{
			ID: jv.ID, State: jv.State, Experiment: jv.Experiment,
			Workloads: strings.Join(j.spec.Workloads, ","),
			Cached:    jv.Cached, Error: jv.Error, Self: jv.Self,
		})
	}
	return v
}

func (s *Server) handleSweepSubmit(w http.ResponseWriter, r *http.Request) {
	var spec SweepSpec
	var children []sweepChild
	var key string
	deadline, ok := s.readSpec(w, r, "sweep", &spec, func() (err error) {
		children, key, err = spec.Expand()
		return err
	})
	if !ok {
		return
	}
	sw, status, rej := s.submitSweep(newSweep(key, spec, time.Now()), children, deadline)
	if rej != nil {
		rej.write(w)
		return
	}
	w.Header().Set("Location", "/v1/sweeps/"+sw.id)
	writeJSON(w, status, sw.view())
}

// submitSweep admits one sweep. A live or done sweep with the same key is
// reused: the same grid is the same sweep, and a duplicate submission
// must reuse its children (and through them every cached child result)
// rather than re-running. Otherwise the sweep passes the admission gate
// as a whole — batch work is admitted all-or-nothing, never half-queued —
// and its children then enqueue together, transiently past QueueDepth,
// which later single submissions see as a full queue. A failed or
// canceled sweep under the same key is replaced only once its successor
// is admitted. The status is 200 for a reused sweep or one whose every
// child was already answered, 202 otherwise.
func (s *Server) submitSweep(sw *sweep, children []sweepChild, deadline time.Time) (*sweep, int, *rejection) {
	s.mu.Lock()
	if old, ok := s.sweeps[sw.id]; ok {
		if reusable(aggregateState(old.counts())) {
			s.reg.AddUint("server/sweep_dedup_hits", 1)
			s.mu.Unlock()
			return old, http.StatusOK, nil
		}
		// The old sweep writes at most one more manifest (its terminal
		// one, at seq+1); starting past that keeps it from overwriting
		// the replacement's.
		old.mu.Lock()
		sw.seq = old.seq + 1
		old.mu.Unlock()
	}
	if rej := s.gateLocked("sweeps"); rej != nil {
		s.mu.Unlock()
		return nil, 0, rej
	}
	s.reg.AddUint("server/sweeps_submitted", 1)
	s.reg.AddUint("server/sweep_children", uint64(len(children)))
	queued := s.startSweepLocked(sw, children, deadline)
	if reused := len(children) - queued; reused > 0 {
		s.reg.AddUint("server/sweep_child_dedup", uint64(reused))
	}
	s.mu.Unlock()

	status := http.StatusAccepted
	if queued == 0 && !sw.counts().pending() {
		// Every grid point was already answered (dedup or cache): the
		// sweep is born terminal.
		status = http.StatusOK
	}
	s.maybeFinishSweep(sw)
	return sw, status, nil
}

// startSweepLocked admits sw's children in grid order through the job
// admission path, without the gate — the sweep passed it as a whole, or
// is being recovered — then tracks the sweep and journals its manifest
// before the response leaves, so a crash from here on replays the sweep
// with these exact child ids. It returns how many children were freshly
// queued. Callers hold s.mu.
func (s *Server) startSweepLocked(sw *sweep, children []sweepChild, deadline time.Time) (queued int) {
	for _, c := range children {
		j, fresh, _ := s.admitLocked(newJob(c.spec, c.cfg, c.key, deadline), false)
		if fresh {
			queued++
		}
		sw.children = append(sw.children, j)
		sw.childIDs[j.id] = true
	}
	insertLocked(s.sweeps, sw.id, sw, s.cfg.MaxJobs)
	s.journalSweep(sw, SweepStateActive)
	return queued
}

// noteChildTerminal runs after any job reaches a terminal state: every
// sweep containing it re-aggregates, and a sweep whose last child just
// settled journals its terminal manifest.
func (s *Server) noteChildTerminal(j *job) {
	s.mu.Lock()
	var owners []*sweep
	for _, sw := range s.sweeps {
		if sw.contains(j.id) {
			owners = append(owners, sw)
		}
	}
	s.mu.Unlock()
	for _, sw := range owners {
		s.maybeFinishSweep(sw)
	}
}

// maybeFinishSweep journals the terminal manifest exactly once when
// every child has settled.
func (s *Server) maybeFinishSweep(sw *sweep) {
	state := aggregateState(sw.counts())
	if !terminalState(state) {
		return
	}
	sw.mu.Lock()
	if sw.finalState != "" {
		sw.mu.Unlock()
		return
	}
	sw.finalState = state
	sw.mu.Unlock()
	s.journalSweep(sw, state)
	switch state {
	case StateDone:
		s.reg.AddUint("server/sweeps_completed", 1)
	case StateFailed:
		s.reg.AddUint("server/sweeps_failed", 1)
	case StateCanceled:
		s.reg.AddUint("server/sweeps_canceled", 1)
	}
	s.log.Info("sweep finish", "sweep", sw.id, "state", state, "children", len(sw.children))
}

// recoverSweeps rebuilds journaled sweep manifests after a crash: the
// spec re-expands to the same ordered grid, and each child goes through
// the admission path again — reattaching to its recovered job (replayed
// moments earlier under its original id), completing from the result
// cache, or, for the narrow crash window where a child's own journal
// record never landed, re-admitted fresh under the same deterministic id.
// A manifest that no longer expands to its own key is returned for GC.
func (s *Server) recoverSweeps(recs []sweepRecord) (gcKeys []string) {
	for _, rec := range recs {
		children, key, err := rec.Spec.Expand()
		if err != nil || key != rec.Key {
			s.log.Warn("journal: dropping unresolvable sweep", "sweep", rec.ID, "err", err)
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		sw := newSweep(key, rec.Spec, rec.Created)
		sw.recovered = rec.Recovered + 1
		s.mu.Lock()
		readmitted := s.startSweepLocked(sw, children, time.Time{})
		s.mu.Unlock()
		s.reg.AddUint("server/sweeps_recovered", 1)
		s.log.Info("journal: recovered sweep", "sweep", sw.id, "children", len(sw.children),
			"readmitted", readmitted, "generation", sw.recovered)
		s.maybeFinishSweep(sw)
	}
	return gcKeys
}
