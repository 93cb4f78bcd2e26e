package dram

import (
	"testing"

	"charonsim/internal/fault"
	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

// TestECCFaultSlowsReads: with ECCRate pinned to 1 every read pays exactly
// the correction latency on top of the fault-free timing, the counters
// book each correction, and writes (unprotected posted path) are
// untouched.
func TestECCFaultSlowsReads(t *testing.T) {
	inj := fault.New(fault.Config{ECCRate: 0.999999, Seed: 1})
	c := NewController(DDR4Timing(), 8, inj, "test")

	plain := NewController(DDR4Timing(), 8, nil, "")
	want := plain.AccessAt(0, memsys.Read, 0, 0, 64) + inj.Config().ECCLatency
	if got := c.AccessAt(0, memsys.Read, 0, 0, 64); got != want {
		t.Fatalf("ECC-corrected read done at %v, want fault-free + %v = %v",
			got, inj.Config().ECCLatency, want)
	}
	ecc, delay, _, _ := c.FaultStats()
	if ecc != 1 || delay != inj.Config().ECCLatency {
		t.Fatalf("FaultStats ecc=%d delay=%v, want 1 correction of %v", ecc, delay, inj.Config().ECCLatency)
	}

	wPlain := NewController(DDR4Timing(), 8, nil, "")
	wFault := NewController(DDR4Timing(), 8, inj, "test")
	if wFault.AccessAt(0, memsys.Write, 0, 0, 64) != wPlain.AccessAt(0, memsys.Write, 0, 0, 64) {
		t.Fatal("ECC injection changed posted-write timing")
	}
}

// TestHardBankFaultRemapsAccesses: a controller built under a certain-fault
// hard-bank rate remaps every access onto healthy neighbours (identity
// when all banks die), counts the remapped accesses, and serves the same
// bytes — faults reroute, they never lose traffic.
func TestHardBankFaultRemapsAccesses(t *testing.T) {
	inj := fault.New(fault.Config{HardBankRate: 0.5, Seed: 9})
	c := NewController(DDR4Timing(), 8, inj, "test")
	_, _, banks, _ := c.FaultStats()
	if banks == 0 {
		t.Fatal("rate-0.5 construction drew zero faulted banks out of 8")
	}
	for b := 0; b < 8; b++ {
		c.AccessAt(0, memsys.Read, b, 0, 64)
	}
	_, _, _, accs := c.FaultStats()
	if accs == 0 {
		t.Fatal("accesses to faulted banks were not remapped")
	}
	if got := c.Stats.ReadBytes; got != 8*64 {
		t.Fatalf("served %d bytes, want %d — remap lost traffic", got, 8*64)
	}
}

// TestControllerFaultDeterminism: same seed, same name, same access
// sequence — identical completion times and counters; a different seed
// must change the ECC pattern.
func TestControllerFaultDeterminism(t *testing.T) {
	run := func(seed int64) (sim.Time, uint64) {
		inj := fault.New(fault.Config{ECCRate: 0.5, Seed: seed})
		c := NewController(DDR4Timing(), 8, inj, "det")
		var last sim.Time
		for i := 0; i < 64; i++ {
			last = c.AccessAt(0, memsys.Read, i%8, uint64(i), 64)
		}
		ecc, _, _, _ := c.FaultStats()
		return last, ecc
	}
	t1, e1 := run(5)
	t2, e2 := run(5)
	if t1 != t2 || e1 != e2 {
		t.Fatalf("same seed diverged: (%v,%d) vs (%v,%d)", t1, e1, t2, e2)
	}
	_, e3 := run(6)
	if e3 == e1 {
		t.Fatalf("seed 5 and 6 drew identical ECC patterns (%d corrections)", e1)
	}
}

// TestNilInjectorIsFaultFree: with a nil injector the stream name is
// unused — controllers built under different names time every access
// identically and book no fault activity.
func TestNilInjectorIsFaultFree(t *testing.T) {
	a := NewController(DDR4Timing(), 8, nil, "")
	b := NewController(DDR4Timing(), 8, nil, "x")
	for i := 0; i < 32; i++ {
		da := a.AccessAt(0, memsys.Read, i%8, uint64(i%3), 64)
		db := b.AccessAt(0, memsys.Read, i%8, uint64(i%3), 64)
		if da != db {
			t.Fatalf("access %d: nil-injector controller diverged (%v vs %v)", i, db, da)
		}
	}
	if ecc, delay, banks, accs := b.FaultStats(); ecc != 0 || delay != 0 || banks != 0 || accs != 0 {
		t.Fatal("nil injector booked fault activity")
	}
}
