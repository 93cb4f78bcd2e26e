package charon

import (
	"testing"

	"charonsim/internal/fault"
	"charonsim/internal/hmc"
)

func newFaultAccel(t *testing.T, fc fault.Config) *Accelerator {
	t.Helper()
	inj := fault.New(fc)
	sys := hmc.NewSystem(cubeShift, hmc.Star, inj)
	a := NewFault(DefaultConfig(), sys, inj)
	a.Initialize(1, AddrRange{Base: 0, Bytes: 64 << 20}, AddrRange{Base: 1 << 30, Bytes: 8 << 20})
	return a
}

func TestHealthyFaultAccelMatchesPlain(t *testing.T) {
	// An armed injector that draws no fault for its seed must schedule
	// identically to New.
	plain := newAccel(false)
	flt := newFaultAccel(t, fault.Config{Rate: 1e-12, Seed: 1})
	for i := uint64(0); i < 8; i++ {
		p := plain.OffloadCopy(0, i<<cubeShift, (i<<cubeShift)+1<<20, 4096)
		f := flt.OffloadCopy(0, i<<cubeShift, (i<<cubeShift)+1<<20, 4096)
		if p != f {
			t.Fatalf("offload %d: healthy fault accel %v != plain %v", i, f, p)
		}
	}
	if failed, degraded, _ := flt.UnitHealth(); failed != 0 || degraded != 0 {
		t.Fatalf("unexpected unit health: %d failed, %d degraded", failed, degraded)
	}
	if retries, _, ecc, remapped := flt.sys.FaultStats(); retries != 0 || ecc != 0 || remapped != 0 {
		t.Fatalf("seed drew faults: %d retries, %d ECC corrections, %d remapped banks", retries, ecc, remapped)
	}
}

func TestFailAllUnits(t *testing.T) {
	a := newFaultAccel(t, fault.Config{FailAllUnits: true, Seed: 1})
	if !a.AllUnitsFailed() {
		t.Fatal("FailAllUnits did not fail every unit")
	}
	if a.CanCopySearch() || a.CanBitmapCount() || a.CanScanPush() {
		t.Fatal("availability must be false with every unit failed")
	}
	failed, _, total := a.UnitHealth()
	if failed != total || total == 0 {
		t.Fatalf("UnitHealth = %d/%d failed", failed, total)
	}
}

func TestCrossCubeReissue(t *testing.T) {
	a := newFaultAccel(t, fault.Config{FailAllUnits: true, Seed: 1})
	// Revive one copy/search unit on cube 1 only: offloads homed on other
	// cubes must fail over there.
	a.copySearch[1][0].failed = false
	if !a.CanCopySearch() {
		t.Fatal("one live unit must make CanCopySearch true")
	}
	src := uint64(2) << cubeShift // homed on cube 2
	a.OffloadCopy(0, src, src+4096, 1024)
	if a.Stats.Reissues != 1 {
		t.Fatalf("Reissues = %d, want 1", a.Stats.Reissues)
	}
	if a.copySearch[1][0].reqs != 1 {
		t.Fatal("offload was not served by the surviving unit")
	}
	// The surviving unit's memory accesses reach the home cube remotely.
	if a.sys.RemoteAccesses == 0 {
		t.Fatal("failover service recorded no remote accesses")
	}
	// Home-cube offloads don't count as reissues.
	a.OffloadCopy(0, uint64(1)<<cubeShift, (uint64(1)<<cubeShift)+4096, 1024)
	if a.Stats.Reissues != 1 {
		t.Fatalf("home-cube offload bumped Reissues to %d", a.Stats.Reissues)
	}
}

func TestDegradedUnitIsSlower(t *testing.T) {
	healthy := newAccel(false)
	// Build with every unit failed, then revive the copy/search units as
	// degraded ones.
	slow := newFaultAccel(t, fault.Config{FailAllUnits: true, Seed: 1})
	for c := range slow.copySearch {
		for i := range slow.copySearch[c] {
			slow.copySearch[c][i].failed = false
			slow.copySearch[c][i].degraded = true
		}
	}
	h := healthy.OffloadCopy(0, 0, 1<<20, 4096)
	s := slow.OffloadCopy(0, 0, 1<<20, 4096)
	if s <= h {
		t.Fatalf("degraded copy %v not slower than healthy %v", s, h)
	}
}

func TestUnitHealthDeterministicPerSeed(t *testing.T) {
	health := func(seed int64) [3]int {
		a := newFaultAccel(t, fault.Config{Rate: 0.9, Seed: seed})
		f, d, tot := a.UnitHealth()
		return [3]int{f, d, tot}
	}
	h := health(5)
	if h[0] == 0 || h[1] == 0 {
		t.Fatalf("seed drew %d failed and %d degraded units, want both", h[0], h[1])
	}
	if health(5) != h {
		t.Fatal("same seed produced different unit health")
	}
	a1 := newFaultAccel(t, fault.Config{Rate: 0.9, Seed: 6})
	a2 := newFaultAccel(t, fault.Config{Rate: 0.9, Seed: 6})
	for c := range a1.copySearch {
		for i := range a1.copySearch[c] {
			if a1.copySearch[c][i].failed != a2.copySearch[c][i].failed {
				t.Fatalf("cube %d unit %d health differs across same-seed builds", c, i)
			}
		}
	}
}
