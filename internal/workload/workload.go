// Package workload provides synthetic mutators reproducing the object
// demographics of the paper's six benchmarks (Table 3):
//
//   - Spark machine learning (Bayesian classification, k-means, logistic
//     regression): few large, short-lived objects with few references —
//     RDD partition churn. Copy and Search dominate their GC time.
//   - GraphChi graph analytics (connected components, PageRank): many
//     small, long-lived objects with many references — graph shards.
//     Scan&Push and Bitmap Count matter most.
//   - GraphChi ALS: very large matrix objects ("a very large matrix data
//     as a single object, which results in a huge copy", Section 3.2).
//
// Heaps are scaled from the paper's 4-12 GB to tens of MB, keeping the
// 10:8:12:4:4:4 proportions of Table 3 and the 1.25-2x overprovisioning
// policy of Section 5.1. All generators are deterministic (seeded
// xorshift), so recorded GC traces are reproducible.
package workload

import (
	"fmt"

	"charonsim/internal/gc"
	"charonsim/internal/heap"
	"charonsim/internal/sim"
)

// Spec describes one benchmark.
type Spec struct {
	Name      string // short code: BS, KM, LR, CC, PR, ALS
	Long      string
	Framework string // "Spark" or "GraphChi"
	Dataset   string // dataset the paper used (we synthesize an equivalent)
	PaperHeap string // heap size in the paper (Table 3)

	// MinHeapBytes is the scaled minimum heap that runs without OOM.
	MinHeapBytes uint64
	// MutatorByteCost approximates useful mutator work per allocated byte
	// (picoseconds), for Figure 2's GC-overhead-vs-mutator normalization.
	MutatorByteCost uint64
}

// Workload is a runnable synthetic mutator.
type Workload interface {
	Spec() Spec
	// Run drives the mutator against the collector until the workload
	// completes or the heap OOMs (returned as an error).
	Run(c *gc.Collector) error
}

// MutatorTime estimates the useful (non-GC) execution time of a finished
// run, from the bytes the mutator allocated and touched.
func MutatorTime(spec Spec, h *heap.Heap) sim.Time {
	return sim.Time(h.Stats.AllocatedBytes * spec.MutatorByteCost)
}

// HeapFor returns the heap size for a workload at the given
// overprovisioning factor (1.0 = minimum heap), rounded to 4 KB. A size
// past 2^63 bytes saturates there, so no factor wraps to a small heap.
func HeapFor(spec Spec, factor float64) uint64 {
	return uint64(min(float64(spec.MinHeapBytes)*factor, 1<<63)) / 4096 * 4096
}

// Factory builds a fresh workload instance (deterministic for a fixed
// seed).
type Factory func() Workload

var registry = map[string]Factory{}

// order is the paper's presentation order (Table 3).
var order = []string{"BS", "KM", "LR", "CC", "PR", "ALS"}

func register(name string, f Factory) {
	if _, dup := registry[name]; dup {
		panic("workload: duplicate " + name)
	}
	registry[name] = f
}

// Names lists registered workloads in the paper's order.
func Names() []string { return append([]string(nil), order...) }

// New builds a workload by short code (BS, KM, LR, CC, PR, ALS).
func New(name string) (Workload, error) {
	f, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown %q (have %v)", name, Names())
	}
	return f(), nil
}

// All builds every registered workload.
func All() []Workload {
	var out []Workload
	for _, n := range order {
		out = append(out, registry[n]())
	}
	return out
}

// Prepare builds a heap + recording collector sized for the workload at
// the given overprovisioning factor.
func Prepare(w Workload, factor float64) (*gc.Collector, *heap.Heap) {
	h := heap.New(heap.DefaultConfig(HeapFor(w.Spec(), factor)), StandardKlasses())
	c := gc.New(h)
	c.Recording = true
	return c, h
}

// RunRecorded runs w on a fresh heap at the given factor and returns the
// collector with its recorded GC log.
func RunRecorded(w Workload, factor float64) (*gc.Collector, error) {
	return RunRecordedMode(w, factor, gc.ModePS)
}

// RunRecordedMode is RunRecorded with collector-mode selection (Table 1's
// three collectors: ParallelScavenge, CMS, G1). A factor that sizes the
// heap past the GC log's address limit is an error, before the heap is
// built.
func RunRecordedMode(w Workload, factor float64, mode gc.Mode) (*gc.Collector, error) {
	if err := gc.CheckHeap(HeapFor(w.Spec(), factor)); err != nil {
		return nil, err
	}
	c, _ := Prepare(w, factor)
	c.Mode = mode
	if err := w.Run(c); err != nil {
		return c, err
	}
	return c, nil
}

// xorshift64 is the deterministic PRNG used by all generators.
type xorshift64 uint64

func newRNG(seed uint64) *xorshift64 {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	x := xorshift64(seed)
	return &x
}

func (x *xorshift64) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift64(v)
	return v
}

// intn returns a value in [0, n).
func (x *xorshift64) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(x.next() % uint64(n))
}

// rangeInt returns a value in [lo, hi].
func (x *xorshift64) rangeInt(lo, hi int) int {
	if hi <= lo {
		return lo
	}
	return lo + x.intn(hi-lo+1)
}

// chance returns true with probability num/den.
func (x *xorshift64) chance(num, den int) bool { return x.intn(den) < num }
