package exec

import (
	"strings"
	"testing"

	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/metrics"
	"charonsim/internal/sim"
)

// TestByteConservationWithFaults asserts that the requester==served byte
// invariant survives fault injection: link retransmissions occupy lanes
// but must not double-count payload, ECC corrections delay but do not
// re-read, and bank remaps redirect rather than duplicate. At rate 0.5,
// seed 3 draws a hard-faulted bank that is accessed on every platform.
func TestByteConservationWithFaults(t *testing.T) {
	fc := fault.Config{Rate: 0.5, Seed: 3}
	kinds := []Kind{KindDDR4, KindHMC, KindCharon, KindCharonDistributed, KindCharonCPUSide}
	for _, k := range kinds {
		s := collectAfterReplay(t, k, 4<<20, Options{Fault: fc})
		req, srv := requestedBytes(s), servedBytes(s)
		if req == 0 {
			t.Fatalf("%v: no requester-side bytes recorded", k)
		}
		if req != srv {
			t.Errorf("%v: conservation violated under faults: requested %.0f B, served %.0f B (delta %+.0f)",
				k, req, srv, srv-req)
		}
		// The fault machinery actually fired.
		var retries, remapped float64
		for name, v := range s.Counters {
			switch {
			case strings.HasSuffix(name, "/crc_retries"):
				retries += v
			case strings.HasSuffix(name, "/remapped_accesses"):
				remapped += v
			}
		}
		if k != KindDDR4 && retries == 0 {
			t.Errorf("%v: 50%% CRC rate produced no link retries", k)
		}
		if remapped == 0 {
			t.Errorf("%v: seed drew no remapped access", k)
		}
	}
}

// TestAllUnitsFailedMatchesHostBaseline is the failover acceptance
// criterion: with every Charon unit failed the platform must degenerate
// to the host-only collector path — per-event GC durations, per-core
// statistics and per-level cache statistics equal to KindHMC exactly
// (same cores, same memory system, same schedule) and one degradation
// event per offloadable invocation. It also pins the two software paths
// to each other: the HMC host walks each core's L1/L2 ahead of the timing
// pass, the Charon platform walks them inline. The second recording adds
// an invocation larger than a walk chunk and runs of empty invocations.
func TestAllUnitsFailedMatchesHostBaseline(t *testing.T) {
	evs, env := record(t, 4<<20)
	for _, rec := range []struct {
		name string
		evs  []*gc.Event
	}{{"recorded", evs}, {"chunk edges", withChunkEdges(evs, env)}} {
		for _, nthreads := range []int{1, 8} {
			dead := assertHostPathsAgree(t, rec.evs, env, nthreads)
			var offloadable uint64
			for _, ev := range rec.evs {
				for i := range ev.Invocations {
					if ev.Invocations[i].Prim().Offloadable() {
						offloadable++
					}
				}
			}
			if noUnit := dead.degNoUnit; noUnit != offloadable {
				t.Fatalf("%s threads=%d: degradation events %d, want one per offloadable invocation (%d)",
					rec.name, nthreads, noUnit, offloadable)
			}
		}
	}
}

// TestFaultRatesSlowGC sanity-checks the macro effect: a faulted memory
// system must not make GC faster.
func TestFaultRatesSlowGC(t *testing.T) {
	evs, env := record(t, 4<<20)
	healthy := mustOpt(t, KindCharon, env, 8, Options{})
	faulty := mustOpt(t, KindCharon, env, 8,
		Options{Fault: fault.Config{Rate: 0.2, Seed: 7}})
	var h, f sim.Time
	for _, ev := range evs {
		h += healthy.Replay(ev, 8).Duration
		f += faulty.Replay(ev, 8).Duration
	}
	if f < h {
		t.Fatalf("20%% fault rate sped GC up: faulty %v < healthy %v", f, h)
	}
}

// TestDegradationMetricsPublished checks the observability contract: the
// degradation counters and per-event distribution appear in the registry.
func TestDegradationMetricsPublished(t *testing.T) {
	s := collectAfterReplay(t, KindCharon, 4<<20,
		Options{Fault: fault.Config{FailAllUnits: true, Seed: 1}})
	if s.Counters["charon/degradation/no_unit"] == 0 {
		t.Fatal("no_unit degradation counter missing or zero")
	}
	d, ok := s.Dists["charon/degradation/per_gc_event"]
	if !ok || d.Count == 0 {
		t.Fatal("per_gc_event degradation distribution missing")
	}
	if s.Counters["charon/charon/units_failed"] == 0 {
		t.Fatal("units_failed counter missing or zero")
	}
}

// TestDegradationSamplesOnlyNonzero checks that a Charon platform keeps
// a per-event degradation sample only for an event that degraded: a
// fault-free platform keeps none and publishes no distribution, and an
// all-failed one publishes zeros for the events that had nothing to
// offload, the same distribution as one sample per event.
func TestDegradationSamplesOnlyNonzero(t *testing.T) {
	evs, env := record(t, 4<<20)
	healthy := mustOpt(t, KindCharon, env, 8, Options{}).(*charonPlatform)
	for _, ev := range evs {
		healthy.Replay(ev, 8)
	}
	if n := len(healthy.degPerEvent); n != 0 {
		t.Fatalf("fault-free platform kept %d degradation samples, want 0", n)
	}
	reg := metrics.NewRegistry()
	healthy.CollectMetrics(reg)
	if d, ok := reg.Snapshot().Dists["charon/degradation/per_gc_event"]; ok {
		t.Fatalf("fault-free platform published a degradation distribution %+v", d)
	}

	// Between the recorded events, one with no offloadable invocation.
	idle := &gc.Event{Kind: gc.Minor, Invocations: []gc.Invocation{gc.Call{Prim: gc.PrimOther, N: 4}.Pack()}}
	dead := mustOpt(t, KindCharon, env, 8, Options{Fault: fault.Config{FailAllUnits: true, Seed: 1}}).(*charonPlatform)
	want := metrics.Dist{Count: 2 * uint64(len(evs))}
	degraded := 0
	for _, ev := range evs {
		dead.Replay(ev, 8)
		dead.Replay(idle, 8)
		c := ev.CountByPrim()
		n := float64(c[gc.PrimCopy] + c[gc.PrimSearch] + c[gc.PrimScanPush] + c[gc.PrimBitmapCount])
		if n > 0 {
			degraded++
		}
		want.Sum += n
		want.Max = max(want.Max, n)
	}
	if n := len(dead.degPerEvent); n != degraded {
		t.Fatalf("all-failed platform kept %d samples, want one per degraded event (%d)", n, degraded)
	}
	reg = metrics.NewRegistry()
	dead.CollectMetrics(reg)
	if got := reg.Snapshot().Dists["charon/degradation/per_gc_event"]; got != want {
		t.Fatalf("per_gc_event = %+v, want %+v", got, want)
	}
}
