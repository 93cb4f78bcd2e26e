// Package energy models power, energy and area for the evaluated systems,
// standing in for the paper's McPAT + CACTI + Synopsys flow with the
// published constants:
//
//   - DRAM access energy: 35 pJ/bit for DDR4 and 21 pJ/bit for HMC
//     (Table 2, citing MAGE [35] and Schmidt et al. [59]);
//   - an activity-based host-core model in McPAT's spirit (dynamic power
//     proportional to busy time, plus static/uncore power for the pause
//     duration);
//   - Charon processing-unit power calibrated to the paper's measurement
//     (2.98 W average, 4.51 W maximum for ALS, Section 5.3);
//   - the Table 4 component areas (total 1.947 mm², 0.487 mm² per cube).
package energy

import (
	"charonsim/internal/exec"
	"charonsim/internal/sim"
)

// DRAM energy constants from Table 2 (picojoules per bit).
const (
	DDR4PJPerBit = 35.0
	HMCPJPerBit  = 21.0
)

// Host power model constants (Westmere-class, 2.67 GHz):
// a fully busy core draws CoreDynamicW on top of CoreStaticW; the uncore
// (LLC, ring, IMC) draws UncoreStaticW whenever the package is awake.
const (
	CoreDynamicW  = 4.2
	CoreStaticW   = 1.1
	UncoreStaticW = 7.5
)

// Charon unit power: busy-time dynamic power per processing unit plus a
// small per-cube static component. Calibrated so the whole accelerator
// averages ~3 W across the six workloads (Section 5.3 reports 2.98 W).
const (
	UnitDynamicW = 1.05
	CubeStaticW  = 0.04
	CharonCubes  = 4
)

// Joules is energy in joules.
type Joules float64

// Breakdown decomposes one GC's energy.
type Breakdown struct {
	HostDynamic Joules
	HostStatic  Joules
	DRAM        Joules
	Units       Joules
}

// Total sums the components.
func (b Breakdown) Total() Joules {
	return b.HostDynamic + b.HostStatic + b.DRAM + b.Units
}

// Add accumulates o into b.
func (b *Breakdown) Add(o Breakdown) {
	b.HostDynamic += o.HostDynamic
	b.HostStatic += o.HostStatic
	b.DRAM += o.DRAM
	b.Units += o.Units
}

// pjPerBit returns the DRAM energy constant for a platform.
func pjPerBit(kind exec.Kind) float64 {
	if kind == exec.KindDDR4 {
		return DDR4PJPerBit
	}
	return HMCPJPerBit
}

// ForGC computes the energy of one replayed GC event on the given
// platform with ncores host cores.
func ForGC(kind exec.Kind, r exec.Result, ncores int) Breakdown {
	var b Breakdown
	b.DRAM = Joules(float64(r.Traffic.Bytes()) * 8 * pjPerBit(kind) * 1e-12)
	b.HostDynamic = Joules(r.HostBusy.Seconds() * CoreDynamicW)
	b.HostStatic = Joules(r.Duration.Seconds() * (float64(ncores)*CoreStaticW + UncoreStaticW))
	b.Units = Joules(r.UnitBusy.Seconds()*UnitDynamicW) +
		Joules(r.Duration.Seconds()*CubeStaticW*CharonCubes)
	if kind == exec.KindDDR4 || kind == exec.KindHMC {
		b.Units = 0
	}
	return b
}

// CharonPower returns just the accelerator's average power over dur
// (Section 5.3's 2.98 W / 4.51 W figures).
func CharonPower(b Breakdown, dur sim.Time) float64 {
	s := dur.Seconds()
	if s == 0 {
		return 0
	}
	return float64(b.Units) / s
}

// --- Table 4: area model -----------------------------------------------------

// AreaRow is one Table 4 line.
type AreaRow struct {
	Component  string
	PerUnitMM2 float64
	Units      int
	TotalMM2   float64
}

// AreaTable reproduces Table 4: per-component synthesized areas (TSMC 40nm
// for logic, CACTI 45nm for SRAM structures) and unit counts.
func AreaTable() []AreaRow {
	rows := []AreaRow{
		{Component: "Command Queue", PerUnitMM2: 0.0049, Units: 4},
		{Component: "Request Queue(R)", PerUnitMM2: 0.0015, Units: 4},
		{Component: "Request Queue(W)", PerUnitMM2: 0.0162, Units: 4},
		{Component: "Metadata Array", PerUnitMM2: 0.0805, Units: 4},
		{Component: "Bitmap Cache", PerUnitMM2: 0.1562, Units: 1},
		{Component: "TLB", PerUnitMM2: 0.0706, Units: 4},
		{Component: "Copy/Search", PerUnitMM2: 0.0223, Units: 8},
		{Component: "Bitmap Count", PerUnitMM2: 0.0427, Units: 8},
		{Component: "Scan&Push", PerUnitMM2: 0.0720, Units: 8},
	}
	for i := range rows {
		rows[i].TotalMM2 = rows[i].PerUnitMM2 * float64(rows[i].Units)
	}
	return rows
}

// TotalArea sums the Table 4 rows (paper: 1.9470 mm²).
func TotalArea() float64 {
	var t float64
	for _, r := range AreaTable() {
		t += r.TotalMM2
	}
	return t
}

// AreaPerCube is the average logic-layer area per cube (paper: 0.4868 mm²).
func AreaPerCube() float64 { return TotalArea() / CharonCubes }

// HMCLogicLayerMM2 is the assumed logic-layer area (Section 5.3 cites
// ~100 mm² per cube).
const HMCLogicLayerMM2 = 100.0

// AreaFraction is Charon's share of the logic layer (paper: 0.49%).
func AreaFraction() float64 { return AreaPerCube() / HMCLogicLayerMM2 }

// PowerDensity returns mW/mm² for a given accelerator power draw spread
// over a cube's logic die, the quantity Section 5.3 compares against a
// passive heat sink's budget (paper: 45.1 mW/mm² maximum).
func PowerDensity(watts float64) float64 {
	return watts / CharonCubes / HMCLogicLayerMM2 * 1000
}
