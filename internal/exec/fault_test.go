package exec

import (
	"testing"

	"charonsim/internal/fault"
	"charonsim/internal/gc"
	"charonsim/internal/sim"
)

// TestByteConservationWithFaults asserts that the requester==served byte
// invariant survives fault injection: link retransmissions occupy lanes
// but must not double-count payload, ECC corrections delay but do not
// re-read, and bank remaps redirect rather than duplicate.
func TestByteConservationWithFaults(t *testing.T) {
	fc := &fault.Config{Rate: 0.1, HardBankRate: 0.05, Seed: 3}
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
		var retries float64
		for name, v := range s.Counters {
			if len(name) > 12 && name[len(name)-12:] == "/crc_retries" {
				retries += v
			}
		}
		if k != KindDDR4 && retries == 0 {
			t.Errorf("%v: 10%% CRC rate produced no link retries", k)
		}
	}
}

// TestByteConservationWithDeadlineFallback covers the watchdog's
// double-charged path: the abandoned offload's traffic and the host
// re-execution's traffic both appear on both sides of the ledger.
func TestByteConservationWithDeadlineFallback(t *testing.T) {
	fc := &fault.Config{OffloadDeadline: 100 * sim.Nanosecond}
	s := collectAfterReplay(t, KindCharon, 4<<20, Options{Fault: fc})
	req, srv := requestedBytes(s), servedBytes(s)
	if req == 0 || req != srv {
		t.Fatalf("conservation violated with watchdog: requested %.0f B, served %.0f B", req, srv)
	}
	if s.Counters["charon/degradation/deadline"] == 0 {
		t.Fatal("a 100ns deadline fired no watchdog fallbacks")
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
					if ev.Invocations[i].Prim.Offloadable() {
						offloadable++
					}
				}
			}
			noUnit, deadline := dead.DegradationEvents()
			if noUnit != offloadable {
				t.Fatalf("%s threads=%d: degradation events %d, want one per offloadable invocation (%d)",
					rec.name, nthreads, noUnit, offloadable)
			}
			if deadline != 0 {
				t.Fatalf("%s threads=%d: unexpected watchdog firings %d", rec.name, nthreads, deadline)
			}
		}
	}
}

// TestHealthyFaultConfigIsByteIdentical asserts the zero-knob guarantee at
// the platform level: an Options.Fault carrying only a deadline that never
// fires replays bit-identically to no fault config at all.
func TestHealthyFaultConfigIsByteIdentical(t *testing.T) {
	evs, env := record(t, 4<<20)
	plain := New(KindCharon, env, 8)
	armed := mustOpt(t, KindCharon, env, 8,
		Options{Fault: &fault.Config{OffloadDeadline: sim.Second}})
	for i, ev := range evs {
		a := plain.Replay(ev, 8)
		b := armed.Replay(ev, 8)
		if a != b {
			t.Fatalf("event %d: armed-but-idle watchdog changed the result:\n%+v\nvs\n%+v", i, a, b)
		}
	}
}

// TestDeadlineFallbackBoundsOffloads verifies the watchdog semantics: with
// a deadline armed, every offloadable invocation completes by
// issue+deadline+host-fallback time, and degradation events are recorded.
func TestDeadlineFallbackBoundsOffloads(t *testing.T) {
	evs, env := record(t, 4<<20)
	p := mustOpt(t, KindCharon, env, 8,
		Options{Fault: &fault.Config{OffloadDeadline: 50 * sim.Nanosecond}})
	for _, ev := range evs {
		p.Replay(ev, 8)
	}
	cp := p.(*charonPlatform)
	_, deadline := cp.DegradationEvents()
	if deadline == 0 {
		t.Fatal("50ns deadline never fired on this workload")
	}
	if len(cp.degPerEvent) != len(evs) {
		t.Fatalf("per-event degradation samples %d, want %d", len(cp.degPerEvent), len(evs))
	}
}

// TestFaultRatesSlowGC sanity-checks the macro effect: a faulted memory
// system must not make GC faster.
func TestFaultRatesSlowGC(t *testing.T) {
	evs, env := record(t, 4<<20)
	healthy := New(KindCharon, env, 8)
	faulty := mustOpt(t, KindCharon, env, 8,
		Options{Fault: &fault.Config{Rate: 0.2, Seed: 7}})
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
		Options{Fault: &fault.Config{FailAllUnits: true, Seed: 1}})
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

var _ = gc.Minor // keep the gc import when build tags trim tests
