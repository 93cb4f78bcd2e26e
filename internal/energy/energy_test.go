package energy

import (
	"math"
	"testing"

	"charonsim/internal/exec"
	"charonsim/internal/memsys"
	"charonsim/internal/sim"
)

func TestDRAMEnergyConstants(t *testing.T) {
	// Table 2's published constants must not drift.
	if DDR4PJPerBit != 35.0 || HMCPJPerBit != 21.0 {
		t.Fatal("pJ/bit constants drifted from Table 2")
	}
	// 1 GB moved on DDR4 = 8e9 bits * 35 pJ = 0.28 J.
	r := exec.Result{Traffic: memsys.Stats{ReadBytes: 1e9}}
	b := ForGC(exec.KindDDR4, r, 8)
	if math.Abs(float64(b.DRAM)-0.28) > 0.001 {
		t.Fatalf("DDR4 DRAM energy = %v J, want 0.28", b.DRAM)
	}
	bh := ForGC(exec.KindHMC, r, 8)
	if bh.DRAM >= b.DRAM {
		t.Fatal("HMC bit energy should be lower than DDR4")
	}
}

func TestHostEnergyScalesWithBusyAndDuration(t *testing.T) {
	r := exec.Result{Duration: 10 * sim.Millisecond, HostBusy: 40 * sim.Millisecond}
	b := ForGC(exec.KindDDR4, r, 8)
	if b.HostDynamic <= 0 || b.HostStatic <= 0 {
		t.Fatal("host energy components missing")
	}
	r2 := r
	r2.HostBusy *= 2
	b2 := ForGC(exec.KindDDR4, r2, 8)
	if b2.HostDynamic != 2*b.HostDynamic {
		t.Fatal("dynamic energy not proportional to busy time")
	}
	if b2.HostStatic != b.HostStatic {
		t.Fatal("static energy should depend on duration only")
	}
}

func TestUnitEnergyOnlyOnCharon(t *testing.T) {
	r := exec.Result{Duration: sim.Millisecond, UnitBusy: 4 * sim.Millisecond}
	if got := ForGC(exec.KindDDR4, r, 8).Units; got != 0 {
		t.Fatalf("DDR4 platform charged unit energy %v", got)
	}
	if got := ForGC(exec.KindHMC, r, 8).Units; got != 0 {
		t.Fatalf("HMC platform charged unit energy %v", got)
	}
	if got := ForGC(exec.KindCharon, r, 8).Units; got <= 0 {
		t.Fatal("Charon platform missing unit energy")
	}
}

func TestBreakdownAddTotal(t *testing.T) {
	a := Breakdown{HostDynamic: 1, HostStatic: 2, DRAM: 3, Units: 4}
	if a.Total() != 10 {
		t.Fatalf("total = %v", a.Total())
	}
	var s Breakdown
	s.Add(a)
	s.Add(a)
	if s.Total() != 20 {
		t.Fatalf("add: %v", s.Total())
	}
}

func TestAreaTableMatchesPaper(t *testing.T) {
	// Table 4's totals: 1.9470 mm² overall, 0.4868 mm² per cube.
	if math.Abs(TotalArea()-1.9470) > 0.0001 {
		t.Fatalf("total area %.4f, want 1.9470", TotalArea())
	}
	if math.Abs(AreaPerCube()-0.48675) > 0.0001 {
		t.Fatalf("per-cube area %.4f, want 0.4868", AreaPerCube())
	}
	// "Charon takes only 0.49% of the total logic layer area."
	if f := AreaFraction(); f < 0.0045 || f > 0.0052 {
		t.Fatalf("area fraction %.4f, want ~0.0049", f)
	}
	rows := AreaTable()
	if len(rows) != 9 {
		t.Fatalf("%d components, want 9", len(rows))
	}
	// Spot-check the largest: Scan&Push 8 units x 0.0720 = 0.5760.
	for _, r := range rows {
		if r.Component == "Scan&Push" && math.Abs(r.TotalMM2-0.5760) > 1e-9 {
			t.Fatalf("Scan&Push area %v", r.TotalMM2)
		}
	}
}

func TestPowerDensityBelowPassiveLimit(t *testing.T) {
	// Section 5.3: the 4.51 W maximum spread over the cubes' ~100 mm²
	// logic dies stays far below a passive heat sink's budget.
	d := PowerDensity(4.51)
	if d <= 0 {
		t.Fatal("power density not positive")
	}
	// Must be far below a passive heat sink's ~1 W/mm² ceiling.
	if d > 1000 {
		t.Fatalf("implausible density %v mW/mm²", d)
	}
}

func TestCharonPower(t *testing.T) {
	r := exec.Result{Duration: sim.Millisecond, UnitBusy: 2 * sim.Millisecond}
	b := ForGC(exec.KindCharon, r, 8)
	p := CharonPower(b, r.Duration)
	if p <= 0 {
		t.Fatal("no charon power")
	}
	if CharonPower(b, 0) != 0 {
		t.Fatal("zero duration")
	}
}
