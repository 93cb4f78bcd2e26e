package server

import (
	"fmt"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"charonsim"
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
	Parallelism int    `json:"parallelism,omitempty"`
	RunTimeout  string `json:"run_timeout,omitempty"`
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
	workloads, err := cleanWorkloads(sp.Workloads)
	if err != nil {
		return nil, "", err
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
						Parallelism: sp.Parallelism,
						RunTimeout:  sp.RunTimeout,
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
// replaced whole, like failed jobs). A sweep has no state of its own:
// status, retention and the journal all read it through its children.
type sweep struct {
	id      string
	key     string
	spec    SweepSpec
	created time.Time

	children []*job // grid order; immutable after construction

	mu      sync.Mutex
	fetched bool // terminal answer delivered to at least one result fetch
}

func newSweep(key string, spec SweepSpec, created time.Time) *sweep {
	return &sweep{id: jobID(key), key: key, spec: spec, created: created}
}

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

// sweepRecord is the journaled sweep manifest: membership only. The spec
// re-expands to the same ordered children, hence the same child ids, on
// any process; the children journal their own state. It is written once,
// when the sweep is admitted, and a boot that finds none of its children
// unfinished collects it.
type sweepRecord struct {
	Schema  int       `json:"schema"`
	Kind    string    `json:"kind"`
	ID      string    `json:"id"`
	Key     string    `json:"key"`
	Spec    SweepSpec `json:"spec"`
	Created time.Time `json:"created"`
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

// view renders the sweep; its recovered generation is the deepest of its
// children's.
func (sw *sweep) view() sweepView {
	c := sw.counts()
	v := sweepView{
		ID: sw.id, State: aggregateState(c), Total: c.total(),
		Counts: map[string]int{
			StateQueued: c.queued, StateRunning: c.running,
			StateDone: c.done, StateFailed: c.failed, StateCanceled: c.canceled,
		},
		Created: sw.created.UTC().Format(time.RFC3339Nano),
		Self:    "/v1/sweeps/" + sw.id,
		Result:  "/v1/sweeps/" + sw.id + "/result",
	}
	for _, j := range sw.children {
		jv := j.view()
		v.Recovered = max(v.Recovered, jv.Recovered)
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
// is admitted. The manifest is journaled before the response leaves, so
// a crash from here on replays the sweep with these exact child ids. The
// status is 200 for a reused sweep or one whose every child was already
// answered, 202 otherwise.
func (s *Server) submitSweep(sw *sweep, children []sweepChild, deadline time.Time) (*sweep, int, *rejection) {
	s.mu.Lock()
	if old, ok := s.sweeps[sw.id]; ok && reusable(aggregateState(old.counts())) {
		s.reg.AddUint("server/sweep_dedup_hits", 1)
		s.mu.Unlock()
		return old, http.StatusOK, nil
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
	s.journal.put(sw.key, sweepRecord{
		Schema: journalSchema, Kind: journalKindSweep,
		ID: sw.id, Key: sw.key, Spec: sw.spec, Created: sw.created,
	})
	s.mu.Unlock()

	status := http.StatusAccepted
	if queued == 0 && !sw.counts().pending() {
		// Every grid point was already answered (dedup or cache): the
		// sweep is born terminal.
		status = http.StatusOK
	}
	return sw, status, nil
}

// startSweepLocked admits sw's children in grid order through the job
// admission path, without the gate — the sweep passed it as a whole, or
// is being recovered — and tracks the sweep. It returns how many children
// were freshly queued. Callers hold s.mu.
func (s *Server) startSweepLocked(sw *sweep, children []sweepChild, deadline time.Time) (queued int) {
	for _, c := range children {
		j, fresh, _ := s.admitLocked(newJob(c.spec, c.cfg, c.key, deadline), false)
		if fresh {
			queued++
		}
		sw.children = append(sw.children, j)
	}
	insertLocked(s.sweeps, sw.id, sw, s.cfg.MaxJobs)
	return queued
}

// recoverSweepsLocked rebuilds the sweeps a dead process still owed an
// answer for. recoverJournal calls it once the unfinished jobs are
// re-admitted, so a manifest is recovered exactly when one of its
// children was just replayed. The spec re-expands to the same ordered
// grid, and each child goes through the admission path again —
// reattaching to its recovered job, completing from its `done` record, or
// re-admitted fresh under the same deterministic id. Any other manifest
// belonged to a sweep that settled before the crash, or no longer expands
// to its own key; it is returned for GC. Callers hold s.mu.
func (s *Server) recoverSweepsLocked(recs []sweepRecord) (gcKeys []string) {
	for _, rec := range recs {
		children, key, err := rec.Spec.Expand()
		if err != nil || key != rec.Key {
			s.log.Warn("journal: dropping unresolvable sweep", "sweep", rec.ID, "err", err)
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		if !slices.ContainsFunc(children, func(c sweepChild) bool { return s.jobs[jobID(c.key)] != nil }) {
			gcKeys = append(gcKeys, rec.Key)
			continue
		}
		sw := newSweep(key, rec.Spec, rec.Created)
		readmitted := s.startSweepLocked(sw, children, time.Time{})
		s.reg.AddUint("server/sweeps_recovered", 1)
		s.log.Info("journal: recovered sweep", "sweep", sw.id, "children", len(sw.children),
			"readmitted", readmitted)
	}
	return gcKeys
}
