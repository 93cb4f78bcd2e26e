package workload

import (
	"testing"

	"charonsim/internal/gc"
)

func TestRegistry(t *testing.T) {
	names := Names()
	want := []string{"BS", "KM", "LR", "CC", "PR", "ALS"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("names[%d] = %s, want %s (paper order)", i, names[i], n)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if len(All()) != 6 {
		t.Fatal("All() incomplete")
	}
}

// TestRunRecordedRejectsHeapPastAddressLimit checks that a factor sizing
// the heap past the GC log's address limit is an error before the heap is
// built, and that HeapFor saturates rather than wrapping a huge factor to
// a small heap.
func TestRunRecordedRejectsHeapPastAddressLimit(t *testing.T) {
	w, _ := New("BS")
	for _, factor := range []float64{10000, 1e300} {
		if col, err := RunRecordedMode(w, factor, gc.ModePS); err == nil || col != nil {
			t.Errorf("factor %g: collector %v, error %v; want an address-limit error", factor, col, err)
		}
	}
	if got := HeapFor(w.Spec(), 1e300); got < 1<<62 {
		t.Errorf("HeapFor(BS, 1e300) = %d, want a saturated size", got)
	}
}

func TestSpecsMatchTable3(t *testing.T) {
	// Paper heap proportions 10:8:12:4:4:4 must be preserved in scaling.
	get := func(n string) Spec {
		w, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		return w.Spec()
	}
	bs, km, lr := get("BS"), get("KM"), get("LR")
	cc := get("CC")
	if bs.MinHeapBytes*8 != km.MinHeapBytes*10 {
		t.Fatalf("BS:KM proportion broken: %d vs %d", bs.MinHeapBytes, km.MinHeapBytes)
	}
	if lr.MinHeapBytes*10 != bs.MinHeapBytes*12 {
		t.Fatal("BS:LR proportion broken")
	}
	if cc.MinHeapBytes*10 != bs.MinHeapBytes*4 {
		t.Fatal("BS:CC proportion broken")
	}
	if bs.Framework != "Spark" || cc.Framework != "GraphChi" {
		t.Fatal("framework labels wrong")
	}
	if bs.PaperHeap != "10GB" || lr.PaperHeap != "12GB" || cc.PaperHeap != "4GB" {
		t.Fatal("paper heap labels drifted from Table 3")
	}
}

// runAt runs a workload at an overprovisioning factor, returning the
// collector or nil on OOM.
func runAt(t *testing.T, name string, factor float64) *gc.Collector {
	t.Helper()
	w, err := New(name)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunRecorded(w, factor)
	if err != nil {
		return nil
	}
	return c
}

func TestAllWorkloadsRunAtMinHeap(t *testing.T) {
	for _, name := range Names() {
		c := runAt(t, name, 1.0)
		if c == nil {
			t.Fatalf("%s: OOM at its declared minimum heap", name)
		}
		if len(c.Log) < 3 {
			t.Fatalf("%s: only %d GC events at min heap (need GC pressure)", name, len(c.Log))
		}
		minors, majors := 0, 0
		for _, ev := range c.Log {
			if ev.Kind == gc.Minor {
				minors++
			} else {
				majors++
			}
		}
		if minors == 0 || majors == 0 {
			t.Fatalf("%s: minors=%d majors=%d; need both", name, minors, majors)
		}
	}
}

func TestWorkloadsRunAtDoubleHeap(t *testing.T) {
	for _, name := range Names() {
		if c := runAt(t, name, 2.0); c == nil {
			t.Fatalf("%s: OOM at 2x heap", name)
		}
	}
}

func TestGCCountDecreasesWithHeadroom(t *testing.T) {
	// Figure 2's mechanism: more heap → fewer GCs → less GC work.
	for _, name := range []string{"BS", "CC"} {
		tight := runAt(t, name, 1.0)
		roomy := runAt(t, name, 2.0)
		if tight == nil || roomy == nil {
			t.Fatalf("%s: unexpected OOM", name)
		}
		if len(roomy.Log) >= len(tight.Log) {
			t.Fatalf("%s: %d GCs at 2.0x vs %d at 1.0x; headroom should reduce GCs",
				name, len(roomy.Log), len(tight.Log))
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := runAt(t, "KM", 1.5)
	b := runAt(t, "KM", 1.5)
	if a == nil || b == nil {
		t.Fatal("OOM")
	}
	if len(a.Log) != len(b.Log) {
		t.Fatalf("nondeterministic GC count: %d vs %d", len(a.Log), len(b.Log))
	}
	for i := range a.Log {
		if len(a.Log[i].Invocations) != len(b.Log[i].Invocations) {
			t.Fatalf("event %d: nondeterministic invocations", i)
		}
		if a.Log[i].LiveBytes != b.Log[i].LiveBytes {
			t.Fatalf("event %d: nondeterministic live bytes", i)
		}
	}
}

func TestSparkDemographics(t *testing.T) {
	// Spark workloads: Copy bytes should dwarf Scan&Push reference counts
	// ("Spark tends to allocate large objects to memory with few
	// references", Section 3.2).
	c := runAt(t, "BS", 1.5)
	if c == nil {
		t.Fatal("OOM")
	}
	var copyBytes, refs uint64
	for _, ev := range c.Log {
		b := ev.BytesByPrim()
		copyBytes += b[gc.PrimCopy]
		refs += b[gc.PrimScanPush]
	}
	if copyBytes == 0 || refs == 0 {
		t.Fatal("missing primitive activity")
	}
	bytesPerRef := float64(copyBytes) / float64(refs)
	if bytesPerRef < 64 {
		t.Fatalf("BS: %.1f copied bytes per reference; expected large-object demographic", bytesPerRef)
	}
}

func TestGraphDemographics(t *testing.T) {
	// GraphChi: many more references per copied byte than Spark.
	spark := runAt(t, "BS", 1.5)
	graph := runAt(t, "CC", 1.5)
	if spark == nil || graph == nil {
		t.Fatal("OOM")
	}
	ratio := func(c *gc.Collector) float64 {
		var copyBytes, refs uint64
		for _, ev := range c.Log {
			b := ev.BytesByPrim()
			copyBytes += b[gc.PrimCopy]
			refs += b[gc.PrimScanPush]
		}
		return float64(refs) / float64(copyBytes+1)
	}
	if ratio(graph) <= ratio(spark) {
		t.Fatalf("CC refs/byte (%.4f) should exceed BS (%.4f)", ratio(graph), ratio(spark))
	}
}

func TestALSHugeCopies(t *testing.T) {
	// ALS: the largest single Copy invocation should be much larger than
	// BS's ("a very large matrix data as a single object").
	maxCopy := func(name string) uint32 {
		c := runAt(t, name, 1.5)
		if c == nil {
			t.Fatalf("%s: OOM", name)
		}
		var mx uint32
		for _, ev := range c.Log {
			for _, inv := range ev.Invocations {
				if inv.Prim() == gc.PrimCopy && inv.N > mx {
					mx = inv.N
				}
			}
		}
		return mx
	}
	als, bs := maxCopy("ALS"), maxCopy("BS")
	if als < 4*bs {
		t.Fatalf("ALS max copy %d not >> BS max copy %d", als, bs)
	}
	if als < 1<<20 {
		t.Fatalf("ALS max copy only %d bytes; matrices should be ~MB", als)
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	rng := newRNG(42)
	const scale, edges = 12, 1 << 15
	deg := make([]int, 1<<scale)
	for i := 0; i < edges; i++ {
		s, _ := rmatEdge(rng, scale)
		deg[s]++
	}
	// R-MAT produces a skewed distribution: the max degree far exceeds the
	// average.
	max, nonzero := 0, 0
	for _, d := range deg {
		if d > max {
			max = d
		}
		if d > 0 {
			nonzero++
		}
	}
	avg := float64(edges) / float64(nonzero)
	if float64(max) < 8*avg {
		t.Fatalf("R-MAT not skewed: max=%d avg=%.1f", max, avg)
	}
}

func TestMutatorTimePositive(t *testing.T) {
	w, _ := New("BS")
	c, err := RunRecorded(w, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if MutatorTime(w.Spec(), c.H) == 0 {
		t.Fatal("mutator time model returned 0")
	}
}

func TestHeapForRounding(t *testing.T) {
	w, _ := New("CC")
	if HeapFor(w.Spec(), 1.25)%4096 != 0 {
		t.Fatal("heap size not page aligned")
	}
	if HeapFor(w.Spec(), 1.0) != w.Spec().MinHeapBytes {
		t.Fatal("factor 1.0 should be the minimum heap")
	}
}

func TestRNG(t *testing.T) {
	r := newRNG(0) // zero seed gets a default
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[r.next()] = true
	}
	if len(seen) != 1000 {
		t.Fatal("xorshift repeating early")
	}
	if r.intn(0) != 0 || r.rangeInt(5, 5) != 5 {
		t.Fatal("degenerate ranges")
	}
	lo, hi := 100, 0
	for i := 0; i < 1000; i++ {
		v := r.rangeInt(3, 9)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if lo != 3 || hi != 9 {
		t.Fatalf("rangeInt bounds [%d,%d]", lo, hi)
	}
}

func BenchmarkRunBS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, _ := New("BS")
		if _, err := RunRecorded(w, 1.5); err != nil {
			b.Fatal(err)
		}
	}
}

func TestFindMinHeap(t *testing.T) {
	min, err := CalibratedMinHeap("ALS")
	if err != nil {
		t.Fatal(err)
	}
	if min == 0 {
		t.Fatal("search failed even at 2x the declared minimum")
	}
	spec, _ := New("ALS")
	declared := spec.Spec().MinHeapBytes
	// The declared minimum must actually run (>= true minimum) and not be
	// grossly padded (within 4x of the true minimum).
	if min > declared {
		t.Fatalf("declared min %d below true min %d", declared, min)
	}
	if declared > 4*min {
		t.Fatalf("declared min %d is >4x the true min %d", declared, min)
	}
	// Just below the true minimum must OOM.
	w, _ := New("ALS")
	c := PrepareBytes(min - 8192)
	if err := w.Run(c); err == nil {
		t.Fatalf("workload survived below its calibrated minimum (%d)", min)
	}
}

func TestDeclaredMinimaRun(t *testing.T) {
	// Every declared Table 3 minimum must complete (cheaper than full
	// calibration; run for the remaining workloads).
	for _, name := range []string{"KM", "PR"} {
		w, _ := New(name)
		c := PrepareBytes(w.Spec().MinHeapBytes)
		if err := w.Run(c); err != nil {
			t.Fatalf("%s: %v at declared minimum", name, err)
		}
	}
}
