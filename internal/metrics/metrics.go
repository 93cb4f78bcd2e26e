// Package metrics is the simulator-wide observability layer: a cheap
// registry of named counters, gauges and distributions that every
// memory-system component (DRAM banks, HMC links, caches, host cores,
// Charon units) publishes into, plus a Chrome trace-event recorder for
// visualizing unit/link activity (see trace.go).
//
// Design constraints, in order:
//
//   - Zero cost when disabled. Components never touch the registry on
//     their hot paths; they bump plain struct counters (integer adds) and
//     publish them in a Collect step after a replay finishes. Every
//     Registry and Recorder method is nil-safe, so call sites need no
//     guards: a nil *Registry short-circuits.
//   - No influence on simulated timing. The registry is write-only during
//     simulation; nothing reads it back into a timing decision, so
//     Report.Text stays byte-identical with metrics on or off.
//   - Deterministic snapshots. Counters and distributions merge
//     commutatively, so concurrent replays (the parallel harness) produce
//     the same snapshot regardless of completion order.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Dist summarizes an observed value stream (utilizations, GC pauses).
type Dist struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Mean returns the arithmetic mean of the observations (0 when empty).
func (d Dist) Mean() float64 {
	if d.Count == 0 {
		return 0
	}
	return d.Sum / float64(d.Count)
}

// merge folds o into d.
func (d *Dist) merge(o Dist) {
	if o.Count == 0 {
		return
	}
	if d.Count == 0 || o.Min < d.Min {
		d.Min = o.Min
	}
	if d.Count == 0 || o.Max > d.Max {
		d.Max = o.Max
	}
	d.Count += o.Count
	d.Sum += o.Sum
}

// Registry accumulates named metrics. The zero value is not used directly;
// a nil *Registry is the disabled state and every method short-circuits on
// it. Names are '/'-separated paths, component-first:
//
//	charon/cube0/copysearch1/busy_ps
//	ddr4/ch1/bank12/row_hits
//
// Registry is safe for concurrent use; it is only touched in per-replay
// Collect steps, never on simulation hot paths.
type Registry struct {
	mu       sync.Mutex
	counters map[string]float64
	gauges   map[string]float64
	dists    map[string]Dist
}

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]float64{},
		gauges:   map[string]float64{},
		dists:    map[string]Dist{},
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Add increments counter name by v. Counters merge by summation, so
// repeated replays of the same platform kind accumulate.
func (r *Registry) Add(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += v
	r.mu.Unlock()
}

// AddUint is Add for integer component counters.
func (r *Registry) AddUint(name string, v uint64) { r.Add(name, float64(v)) }

// SetMax records a high-water gauge: name keeps the maximum v ever set
// (maxima merge commutatively, unlike last-writer-wins gauges).
func (r *Registry) SetMax(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if cur, ok := r.gauges[name]; !ok || v > cur {
		r.gauges[name] = v
	}
	r.mu.Unlock()
}

// Observe adds one observation to distribution name.
func (r *Registry) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	d := r.dists[name]
	d.merge(Dist{Count: 1, Sum: v, Min: v, Max: v})
	r.dists[name] = d
	r.mu.Unlock()
}

// Merge folds every metric of o into r (counters add, gauges max,
// distributions merge). o may be nil.
func (r *Registry) Merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	r.MergeSnapshot(o.Snapshot())
}

// MergeSnapshot folds a snapshot into r exactly as Merge folds the
// registry it was taken from, so a stored snapshot re-publishes the same
// values as the live counters did.
func (r *Registry) MergeSnapshot(s Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range s.Counters {
		r.counters[k] += v
	}
	for k, v := range s.Gauges {
		if cur, ok := r.gauges[k]; !ok || v > cur {
			r.gauges[k] = v
		}
	}
	for k, v := range s.Dists {
		d := r.dists[k]
		d.merge(v)
		r.dists[k] = d
	}
}

// Snapshot is a point-in-time copy of a registry, JSON-serializable and
// stable (maps render with sorted keys under encoding/json).
type Snapshot struct {
	Counters map[string]float64 `json:"counters"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
	Dists    map[string]Dist    `json:"distributions,omitempty"`
}

// Snapshot copies the current state. A nil registry yields an empty
// snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{Counters: map[string]float64{}, Gauges: map[string]float64{}, Dists: map[string]Dist{}}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for k, v := range r.counters {
		s.Counters[k] = v
	}
	for k, v := range r.gauges {
		s.Gauges[k] = v
	}
	for k, v := range r.dists {
		s.Dists[k] = v
	}
	return s
}

// Counter returns the current value of a counter (0 if absent), for tests
// and invariant checks.
func (r *Registry) Counter(name string) float64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Gauge returns the current value of a high-water gauge (0 if absent).
func (r *Registry) Gauge(name string) (float64, bool) {
	if r == nil {
		return 0, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.gauges[name]
	return v, ok
}

// Distribution returns a copy of distribution name.
func (r *Registry) Distribution(name string) Dist {
	if r == nil {
		return Dist{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dists[name]
}

// Names returns every metric name (all kinds), sorted, for invariant
// sweeps ("every *_util gauge is in [0,1]").
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.counters)+len(r.gauges)+len(r.dists))
	for k := range r.counters {
		out = append(out, k)
	}
	for k := range r.gauges {
		out = append(out, k)
	}
	for k := range r.dists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteCSV writes the snapshot as "name,kind,count,sum,min,mean,max" rows
// (counters and gauges fill count=1, sum=value).
func (s Snapshot) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "name,kind,count,sum,min,mean,max"); err != nil {
		return err
	}
	row := func(name, kind string, count uint64, sum, min, mean, max float64) error {
		_, err := fmt.Fprintf(w, "%s,%s,%d,%s,%s,%s,%s\n", name, kind, count,
			fmtF(sum), fmtF(min), fmtF(mean), fmtF(max))
		return err
	}
	names := make([]string, 0, len(s.Counters))
	for k := range s.Counters {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := s.Counters[k]
		if err := row(k, "counter", 1, v, v, v, v); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Gauges {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v := s.Gauges[k]
		if err := row(k, "gauge", 1, v, v, v, v); err != nil {
			return err
		}
	}
	names = names[:0]
	for k := range s.Dists {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		d := s.Dists[k]
		if err := row(k, "dist", d.Count, d.Sum, d.Min, d.Mean(), d.Max); err != nil {
			return err
		}
	}
	return nil
}

// fmtF renders a float compactly (integers without a fraction).
func fmtF(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.6f", v), "0"), ".")
}
