package gc_test

import (
	"testing"
	"unsafe"

	"charonsim/internal/gc"
	"charonsim/internal/workload"
)

// TestLogRecordSizes pins the in-memory size of the two records a GC log
// is made of: a recording keeps millions of them for as long as it is
// replayed.
func TestLogRecordSizes(t *testing.T) {
	if n := unsafe.Sizeof(gc.Invocation{}); n != 32 {
		t.Errorf("sizeof(Invocation) = %d, want 32", n)
	}
	if n := unsafe.Sizeof(gc.RefVisit{}); n != 24 {
		t.Errorf("sizeof(RefVisit) = %d, want 24", n)
	}
}

// TestLogEventsExactSize checks that every closed event holds its
// invocations and reference visits in arrays of exactly their length, so
// a kept log carries no append slack.
func TestLogEventsExactSize(t *testing.T) {
	for _, name := range []string{"BS", "PR"} {
		w, err := workload.New(name)
		if err != nil {
			t.Fatal(err)
		}
		col, err := workload.RunRecorded(w, 1.5)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		log := col.EventLog().Log
		if len(log) == 0 {
			t.Fatalf("%s: empty log", name)
		}
		for _, ev := range log {
			if len(ev.Invocations) != cap(ev.Invocations) || len(ev.Refs) != cap(ev.Refs) {
				t.Fatalf("%s event %d: invocations len %d cap %d, refs len %d cap %d", name, ev.Seq,
					len(ev.Invocations), cap(ev.Invocations), len(ev.Refs), cap(ev.Refs))
			}
		}
	}
}
