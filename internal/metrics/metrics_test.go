package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"charonsim/internal/sim"
)

func TestNilRegistryIsSafe(t *testing.T) {
	var r *Registry
	// Every method must short-circuit on the disabled (nil) registry.
	r.Add("x", 1)
	r.AddUint("x", 1)
	r.SetMax("g", 2)
	r.Observe("d", 3)
	r.Merge(NewRegistry())
	if r.Enabled() {
		t.Fatal("nil registry reports enabled")
	}
	if got := r.Counter("x"); got != 0 {
		t.Fatalf("nil counter = %v", got)
	}
	if _, ok := r.Gauge("g"); ok {
		t.Fatal("nil gauge present")
	}
	if d := r.Distribution("d"); d.Count != 0 {
		t.Fatalf("nil dist %+v", d)
	}
	if names := r.Names(); names != nil {
		t.Fatalf("nil names %v", names)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 {
		t.Fatalf("nil snapshot %+v", s)
	}
}

func TestCountersGaugesDists(t *testing.T) {
	r := NewRegistry()
	r.Add("a/b", 1)
	r.Add("a/b", 2.5)
	r.AddUint("a/c", 7)
	r.SetMax("g", 3)
	r.SetMax("g", 2) // lower: ignored
	r.Observe("d", 1)
	r.Observe("d", 5)
	r.Observe("d", 3)

	if got := r.Counter("a/b"); got != 3.5 {
		t.Fatalf("a/b = %v", got)
	}
	if v, ok := r.Gauge("g"); !ok || v != 3 {
		t.Fatalf("g = %v,%v", v, ok)
	}
	d := r.Distribution("d")
	if d.Count != 3 || d.Min != 1 || d.Max != 5 || d.Sum != 9 || d.Mean() != 3 {
		t.Fatalf("dist %+v", d)
	}
	names := r.Names()
	want := []string{"a/b", "a/c", "d", "g"}
	if len(names) != len(want) {
		t.Fatalf("names %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names %v", names)
		}
	}
}

func TestMergeCommutative(t *testing.T) {
	build := func(order []int) Snapshot {
		parts := []*Registry{NewRegistry(), NewRegistry(), NewRegistry()}
		parts[0].Add("c", 1)
		parts[0].Observe("d", 10)
		parts[1].Add("c", 2)
		parts[1].SetMax("g", 5)
		parts[2].Add("c", 4)
		parts[2].Observe("d", 2)
		parts[2].SetMax("g", 3)
		total := NewRegistry()
		for _, i := range order {
			total.Merge(parts[i])
		}
		return total.Snapshot()
	}
	a := build([]int{0, 1, 2})
	b := build([]int{2, 0, 1})
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("merge order changed the snapshot:\n%s\n%s", aj, bj)
	}
	if a.Counters["c"] != 7 || a.Gauges["g"] != 5 {
		t.Fatalf("snapshot %+v", a)
	}
}

// TestMergeSnapshotRoundTrip: a snapshot that went through JSON merges
// exactly as the registry it was taken from.
func TestMergeSnapshotRoundTrip(t *testing.T) {
	part := NewRegistry()
	part.AddUint("c", 3)
	part.SetMax("g", 0.1+0.2)
	part.Observe("d", 1.0/3)
	part.Observe("d", 7)
	b, err := json.Marshal(part.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	live, stored := NewRegistry(), NewRegistry()
	for i := 0; i < 2; i++ {
		live.Merge(part)
		stored.MergeSnapshot(snap)
	}
	lj, _ := json.Marshal(live.Snapshot())
	sj, _ := json.Marshal(stored.Snapshot())
	if string(lj) != string(sj) {
		t.Fatalf("stored snapshot merged differently:\n%s\n%s", lj, sj)
	}
	var nilReg *Registry
	nilReg.MergeSnapshot(snap) // disabled registry: no-op, no panic
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Add("c", 1)
				r.Observe("d", float64(i))
				r.SetMax("g", float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c"); got != 8000 {
		t.Fatalf("c = %v", got)
	}
	if d := r.Distribution("d"); d.Count != 8000 || d.Max != 999 {
		t.Fatalf("d %+v", d)
	}
}

func TestSnapshotJSONAndCSV(t *testing.T) {
	r := NewRegistry()
	r.Add("dram/ch0/row_hits", 42)
	r.SetMax("dram/ch0/bus_util", 0.75)
	r.Observe("gc/pause_ps", 1000)
	r.Observe("gc/pause_ps", 3000)

	var jb bytes.Buffer
	if err := r.Snapshot().WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	var round Snapshot
	if err := json.Unmarshal(jb.Bytes(), &round); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if round.Counters["dram/ch0/row_hits"] != 42 || round.Dists["gc/pause_ps"].Count != 2 {
		t.Fatalf("round-trip %+v", round)
	}

	var cb bytes.Buffer
	if err := r.Snapshot().WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	out := cb.String()
	if !strings.HasPrefix(out, "name,kind,count,sum,min,mean,max\n") {
		t.Fatalf("csv header missing:\n%s", out)
	}
	for _, want := range []string{
		"dram/ch0/row_hits,counter,1,42,42,42,42",
		"dram/ch0/bus_util,gauge,1,0.75,0.75,0.75,0.75",
		"gc/pause_ps,dist,2,4000,1000,2000,3000",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Span("x", "cat", 0, 0, 0, 10)
	r.NameProcess(0, "p")
	r.NameThread(0, 0, "t")
	if r.Enabled() || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder not inert")
	}
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var f map[string]interface{}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("nil recorder JSON invalid: %v", err)
	}
	if _, ok := f["traceEvents"]; !ok {
		t.Fatalf("no traceEvents array: %s", b.String())
	}
}

func TestRecorderSpansAndLimit(t *testing.T) {
	r := NewRecorder(2)
	r.NameProcess(1, "charon cube0")
	r.NameThread(1, 0, "copysearch0")
	r.Span("copy", "offload", 1, 0, 1000*sim.Nanosecond, 2000*sim.Nanosecond)
	r.Span("search", "offload", 1, 0, 2000*sim.Nanosecond, 2500*sim.Nanosecond)
	r.Span("over", "offload", 1, 0, 3000*sim.Nanosecond, 3100*sim.Nanosecond)
	if r.Len() != 2 || r.Dropped() != 1 {
		t.Fatalf("len %d dropped %d", r.Len(), r.Dropped())
	}

	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []TraceEvent           `json:"traceEvents"`
		OtherData   map[string]interface{} `json:"otherData"`
	}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatalf("trace JSON invalid: %v", err)
	}
	// 2 metadata + 2 spans.
	if len(f.TraceEvents) != 4 {
		t.Fatalf("events %+v", f.TraceEvents)
	}
	if f.TraceEvents[0].Ph != "M" || f.TraceEvents[1].Ph != "M" {
		t.Fatalf("metadata not first: %+v", f.TraceEvents[:2])
	}
	span := f.TraceEvents[2]
	if span.Ph != "X" || span.Name != "copy" || span.Ts != 1 || span.Dur != 1 {
		t.Fatalf("span %+v", span)
	}
	if f.OtherData["droppedEvents"] == nil {
		t.Fatal("dropped count not reported")
	}
}

func TestRecorderClampsBackwardSpan(t *testing.T) {
	r := NewRecorder(0)
	r.Span("x", "", 0, 0, 100, 50) // end < start clamps to zero duration
	var b bytes.Buffer
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var f struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(b.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	if f.TraceEvents[0].Dur != 0 {
		t.Fatalf("dur %v", f.TraceEvents[0].Dur)
	}
}
