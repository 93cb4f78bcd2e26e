package exec

import (
	"strings"
	"testing"

	"charonsim/internal/metrics"
)

// collectAfterReplay replays every event on a fresh platform of the given
// kind and returns the collected metrics snapshot.
func collectAfterReplay(t *testing.T, kind Kind, heapBytes uint64, opt Options) metrics.Snapshot {
	t.Helper()
	evs, env := record(t, heapBytes)
	p := mustOpt(t, kind, env, 8, opt)
	for _, ev := range evs {
		p.Replay(ev, 8)
	}
	ms, ok := p.(MetricsSource)
	if !ok {
		t.Fatalf("%v platform does not implement MetricsSource", kind)
	}
	reg := metrics.NewRegistry()
	ms.CollectMetrics(reg)
	return reg.Snapshot()
}

// requestedBytes sums the requester-side byte counters: what the host
// cores (post-cache: demand misses, prefetches, writebacks, flushes) and
// the Charon units asked the memory system for.
func requestedBytes(s metrics.Snapshot) float64 {
	var sum float64
	for name, v := range s.Counters {
		switch {
		case strings.Contains(name, "/cpu/") &&
			(strings.HasSuffix(name, "/mem_read_bytes") || strings.HasSuffix(name, "/mem_write_bytes")):
			sum += v
		case strings.HasSuffix(name, "/charon/mem_read_bytes") || strings.HasSuffix(name, "/charon/mem_write_bytes"):
			sum += v
		}
	}
	return sum
}

// servedBytes sums the server-side byte counters: what the DRAM banks
// (DDR4 channels, or HMC vaults) actually transferred. Link/TSV traffic
// is transport, not service, and is excluded.
func servedBytes(s metrics.Snapshot) float64 {
	var sum float64
	for name, v := range s.Counters {
		switch {
		case strings.Contains(name, "/dram/") &&
			(strings.HasSuffix(name, "/read_bytes") || strings.HasSuffix(name, "/write_bytes")):
			sum += v
		case strings.Contains(name, "/vault") &&
			(strings.HasSuffix(name, "/read_bytes") || strings.HasSuffix(name, "/write_bytes")):
			sum += v
		}
	}
	return sum
}

// TestByteConservation asserts the cross-component conservation law on
// every platform kind and two workload shapes: every byte the requesters
// (cores + Charon units) asked for is served by exactly one DRAM bank —
// no duplication, no loss, exact equality.
func TestByteConservation(t *testing.T) {
	kinds := []Kind{KindDDR4, KindHMC, KindCharon, KindCharonDistributed, KindCharonCPUSide, KindIdeal}
	for _, heapBytes := range []uint64{4 << 20, 8 << 20} {
		for _, k := range kinds {
			s := collectAfterReplay(t, k, heapBytes, Options{})
			req, srv := requestedBytes(s), servedBytes(s)
			if req == 0 {
				t.Fatalf("%v heap=%d: no requester-side bytes recorded", k, heapBytes)
			}
			if req != srv {
				t.Errorf("%v heap=%d: conservation violated: requested %.0f B, served %.0f B (delta %+.0f)",
					k, heapBytes, req, srv, srv-req)
			}
		}
	}
}

// TestUtilizationGaugesInRange asserts every published utilization gauge
// is a valid fraction: busy time accounted to a resource never exceeds
// the platform's horizon (the Calendar clamp fix).
func TestUtilizationGaugesInRange(t *testing.T) {
	for _, k := range []Kind{KindDDR4, KindHMC, KindCharon} {
		s := collectAfterReplay(t, k, 8<<20, Options{})
		checked := 0
		for name, v := range s.Gauges {
			if !strings.HasSuffix(name, "util") {
				continue
			}
			checked++
			if v < 0 || v > 1 {
				t.Errorf("%v: gauge %s = %v outside [0,1]", k, name, v)
			}
		}
		if checked == 0 {
			t.Fatalf("%v: no utilization gauges published", k)
		}
	}
}

// TestBusyNeverExceedsHorizon cross-checks the counter form of the same
// invariant: per-resource busy_ps never exceeds the platform clock.
func TestBusyNeverExceedsHorizon(t *testing.T) {
	for _, k := range []Kind{KindDDR4, KindHMC, KindCharon} {
		s := collectAfterReplay(t, k, 8<<20, Options{})
		prefix := metricsPrefix(k.String())
		horizon, ok := s.Gauges[prefix+"/clock_ps"]
		if !ok || horizon <= 0 {
			t.Fatalf("%v: no clock_ps gauge", k)
		}
		for name, v := range s.Counters {
			if !strings.HasSuffix(name, "busy_ps") {
				continue
			}
			if v > horizon {
				t.Errorf("%v: %s = %.0f ps exceeds horizon %.0f ps", k, name, v, horizon)
			}
		}
	}
}

// TestCollectMetricsDisabledIsNoop asserts the nil-registry fast path: a
// disabled registry stays empty and replay results are unaffected.
func TestCollectMetricsDisabledIsNoop(t *testing.T) {
	evs, env := record(t, 4<<20)
	p := mustOpt(t, KindCharon, env, 8, Options{})
	for _, ev := range evs {
		p.Replay(ev, 8)
	}
	var reg *metrics.Registry // nil = disabled
	p.(MetricsSource).CollectMetrics(reg)
	if reg.Enabled() || len(reg.Names()) != 0 {
		t.Fatal("nil registry must stay disabled and empty")
	}
}

// TestTraceRecorderCapturesSpans asserts the Options.Trace plumbing: a
// recorder passed at construction receives GC-event and unit spans, and
// the platform names its trace lanes.
func TestTraceRecorderCapturesSpans(t *testing.T) {
	evs, env := record(t, 4<<20)
	rec := metrics.NewRecorder(0)
	p := mustOpt(t, KindCharon, env, 8, Options{Trace: rec})
	for _, ev := range evs {
		p.Replay(ev, 8)
	}
	if rec.Len() == 0 {
		t.Fatal("no trace events recorded")
	}
	if rec.Dropped() != 0 {
		t.Fatalf("recorder dropped %d events under the default limit", rec.Dropped())
	}
	var sb strings.Builder
	if err := rec.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{`"process_name"`, `"thread_name"`, `"copysearch0"`, `"ph":"X"`} {
		if !strings.Contains(out, want) {
			t.Errorf("trace JSON missing %s", want)
		}
	}
}
