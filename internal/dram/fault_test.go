package dram

import (
	"testing"

	"charonsim/internal/fault"
	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

// TestECCFaultSlowsReads: every ECC-corrected read pays exactly the
// correction latency on top of the fault-free timing, every other read
// matches it, the counters book each correction, and writes (unprotected
// posted path) are untouched. Seed 1 at rate 0.9 draws corrections and
// no hard-faulted bank, so the faulted and plain controllers see the
// same bank and bus state throughout.
func TestECCFaultSlowsReads(t *testing.T) {
	inj := fault.New(fault.Config{Rate: 0.9, Seed: 1})
	c := NewController(DDR4Timing(), 8, inj, "test")
	if _, _, banks, _ := c.FaultStats(); banks != 0 {
		t.Fatalf("seed drew %d hard-faulted banks, want none", banks)
	}

	plain := NewController(DDR4Timing(), 8, nil, "")
	var corrected uint64
	for i := 0; i < 32; i++ {
		want := plain.AccessAt(0, memsys.Read, i%8, uint64(i), 64)
		got := c.AccessAt(0, memsys.Read, i%8, uint64(i), 64)
		if ecc, _, _, _ := c.FaultStats(); ecc > corrected {
			want += fault.ECCLatency
			corrected = ecc
		}
		if got != want {
			t.Fatalf("read %d done at %v, want %v (fault-free, plus %v if corrected)",
				i, got, want, fault.ECCLatency)
		}
	}
	if corrected == 0 {
		t.Fatal("seed drew no ECC correction in 32 reads")
	}
	if _, delay, _, _ := c.FaultStats(); delay != sim.Time(corrected)*fault.ECCLatency {
		t.Fatalf("FaultStats delay=%v, want %d corrections of %v", delay, corrected, fault.ECCLatency)
	}

	wPlain := NewController(DDR4Timing(), 8, nil, "")
	wFault := NewController(DDR4Timing(), 8, inj, "test")
	if wFault.AccessAt(0, memsys.Write, 0, 0, 64) != wPlain.AccessAt(0, memsys.Write, 0, 0, 64) {
		t.Fatal("ECC injection changed posted-write timing")
	}
}

// TestHardBankFaultRemapsAccesses: a controller whose seed draws hard bank
// faults remaps every access to a faulted bank onto a healthy neighbour,
// counts the remapped accesses, and serves the same bytes — faults
// reroute, they never lose traffic.
func TestHardBankFaultRemapsAccesses(t *testing.T) {
	const nbanks = 64
	inj := fault.New(fault.Config{Rate: 0.9, Seed: 9})
	c := NewController(DDR4Timing(), nbanks, inj, "test")
	_, _, banks, _ := c.FaultStats()
	if banks == 0 {
		t.Fatalf("seed drew zero faulted banks out of %d", nbanks)
	}
	for b := 0; b < nbanks; b++ {
		c.AccessAt(0, memsys.Read, b, 0, 64)
	}
	_, _, _, accs := c.FaultStats()
	if accs != uint64(banks) {
		t.Fatalf("%d accesses remapped, want one per faulted bank (%d)", accs, banks)
	}
	if got := c.Stats.ReadBytes; got != nbanks*64 {
		t.Fatalf("served %d bytes, want %d — remap lost traffic", got, nbanks*64)
	}
}

// TestControllerFaultDeterminism: same seed, same name, same access
// sequence — identical completion times and counters; a different seed
// must change the ECC pattern.
func TestControllerFaultDeterminism(t *testing.T) {
	run := func(seed int64) (sim.Time, uint64) {
		inj := fault.New(fault.Config{Rate: 0.9, Seed: seed})
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
