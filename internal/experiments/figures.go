package experiments

import (
	"fmt"

	"charonsim/internal/energy"
	"charonsim/internal/exec"
	"charonsim/internal/gc"
	"charonsim/internal/stats"
)

// Fig2Factors are the heap overprovisioning points of Figure 2.
var Fig2Factors = []float64{1.0, 1.25, 1.5, 2.0}

// Fig2Result is GC overhead normalized to mutator time, per workload and
// heap factor.
type Fig2Result struct {
	Factors  []float64
	Workload []string
	// Overhead[w][f] = GC time / mutator time on the DDR4 host.
	Overhead map[string][]float64
}

// Fig2 reproduces Figure 2: GC overhead vs heap size on the baseline
// host. Overhead grows toward the minimum heap and is still noticeable at
// 2x (the paper reports ≥15% at 2x and up to 365% near the minimum).
// Every (workload, factor) cell is an independent record+replay, so the
// whole grid fans out across the session's parallelism.
func Fig2(s *Session) (*Fig2Result, error) {
	cfg := s.Config()
	res := &Fig2Result{Factors: Fig2Factors, Workload: cfg.Workloads, Overhead: map[string][]float64{}}
	rows := make([][]float64, len(cfg.Workloads))
	for i := range rows {
		rows[i] = make([]float64, len(Fig2Factors))
	}
	err := cfg.forEachGrid(len(cfg.Workloads), len(Fig2Factors), func(w, f int) error {
		r, err := s.Record(cfg.Workloads[w], Fig2Factors[f])
		if err != nil {
			return err
		}
		rr, err := s.Replay(r, exec.KindDDR4, cfg.Threads)
		if err != nil {
			return err
		}
		t := Sum(exec.KindDDR4, rr, cfg.Threads)
		rows[w][f] = t.Duration.Seconds() / r.MutTime.Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range cfg.Workloads {
		res.Overhead[name] = rows[i]
	}
	return res, nil
}

// Render prints the figure's rows.
func (r *Fig2Result) Render() string {
	cols := []string{"workload"}
	for _, f := range r.Factors {
		cols = append(cols, fmt.Sprintf("%.2fx", f))
	}
	tb := stats.NewTable("Figure 2: GC overhead normalized to mutator time (DDR4 host)", cols...)
	for _, w := range r.Workload {
		tb.AddFloats(w, 3, r.Overhead[w]...)
	}
	return tb.String()
}

// Fig4Result is the per-primitive GC runtime breakdown.
type Fig4Result struct {
	Kind     gc.Kind
	Workload []string
	// Share[w][prim] = fraction of host GC time in that primitive.
	Share map[string][gc.NumPrims]float64
	// KeyShare[w] = fraction covered by the offloadable primitives.
	KeyShare map[string]float64
}

// Fig4 reproduces Figure 4(a)/(b): the runtime breakdown of MinorGC or
// MajorGC on the DDR4 host. The paper finds the offloadable primitives
// cover 71-93% of GC time.
func Fig4(s *Session, kind gc.Kind) (*Fig4Result, error) {
	cfg := s.Config()
	res := &Fig4Result{Kind: kind, Workload: cfg.Workloads,
		Share: map[string][gc.NumPrims]float64{}, KeyShare: map[string]float64{}}
	shares := make([][gc.NumPrims]float64, len(cfg.Workloads))
	keys := make([]float64, len(cfg.Workloads))
	err := cfg.forEach(len(cfg.Workloads), func(w int) error {
		r, err := s.Record(cfg.Workloads[w], cfg.Factor)
		if err != nil {
			return err
		}
		rr, err := s.Replay(r, exec.KindDDR4, cfg.Threads)
		if err != nil {
			return err
		}
		var prim [gc.NumPrims]float64
		var total float64
		for e, ev := range r.Col.Log {
			if ev.Kind != kind {
				continue
			}
			for i, v := range rr[e].PrimTime {
				prim[i] += v.Seconds()
				total += v.Seconds()
			}
		}
		var share [gc.NumPrims]float64
		key := 0.0
		for i := range prim {
			if total > 0 {
				share[i] = prim[i] / total
			}
			if gc.Prim(i).Offloadable() {
				key += share[i]
			}
		}
		shares[w] = share
		keys[w] = key
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i, name := range cfg.Workloads {
		res.Share[name] = shares[i]
		res.KeyShare[name] = keys[i]
	}
	return res, nil
}

// Render prints the breakdown table.
func (r *Fig4Result) Render() string {
	cols := []string{"workload"}
	for p := 0; p < int(gc.NumPrims); p++ {
		cols = append(cols, gc.Prim(p).String())
	}
	cols = append(cols, "key-total")
	tb := stats.NewTable(fmt.Sprintf("Figure 4 (%vGC): runtime breakdown on the DDR4 host", r.Kind), cols...)
	for _, w := range r.Workload {
		sh := r.Share[w]
		vals := make([]float64, 0, len(sh)+1)
		for _, v := range sh {
			vals = append(vals, v*100)
		}
		vals = append(vals, r.KeyShare[w]*100)
		tb.AddFloats(w, 1, vals...)
	}
	return tb.String()
}

// Fig12Kinds are the platforms of Figure 12, in plot order.
var Fig12Kinds = []exec.Kind{exec.KindDDR4, exec.KindHMC, exec.KindCharon, exec.KindIdeal}

// Fig12Result is normalized GC performance per workload and platform.
type Fig12Result struct {
	Workload []string
	// Speedup[w][kind] over the DDR4 host.
	Speedup map[string]map[exec.Kind]float64
	// Geomean[kind] across workloads.
	Geomean map[exec.Kind]float64
}

// Fig12 reproduces Figure 12: Charon's overall GC speedup over the DDR4
// host (paper: HMC 1.21x, Charon 3.29x geomean, Ideal slightly above).
func Fig12(s *Session) (*Fig12Result, error) {
	cfg := s.Config()
	res := &Fig12Result{Workload: cfg.Workloads,
		Speedup: map[string]map[exec.Kind]float64{}, Geomean: map[exec.Kind]float64{}}
	rows := make([][]float64, len(cfg.Workloads)) // rows[w][ki] aligned to Fig12Kinds
	err := cfg.forEach(len(cfg.Workloads), func(w int) error {
		base, err := s.replayTotals(cfg.Workloads[w], exec.KindDDR4, cfg.Threads)
		if err != nil {
			return err
		}
		row := make([]float64, len(Fig12Kinds))
		for ki, k := range Fig12Kinds {
			t, err := s.replayTotals(cfg.Workloads[w], k, cfg.Threads)
			if err != nil {
				return err
			}
			row[ki] = base.Duration.Seconds() / t.Duration.Seconds()
		}
		rows[w] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	perKind := map[exec.Kind]map[string]float64{}
	for w, name := range cfg.Workloads {
		res.Speedup[name] = map[exec.Kind]float64{}
		for ki, k := range Fig12Kinds {
			res.Speedup[name][k] = rows[w][ki]
			if perKind[k] == nil {
				perKind[k] = map[string]float64{}
			}
			perKind[k][name] = rows[w][ki]
		}
	}
	for _, k := range Fig12Kinds {
		gm, err := geomeanOf(cfg.Workloads, perKind[k])
		if err != nil {
			return nil, fmt.Errorf("fig12 %s: %w", k, err)
		}
		res.Geomean[k] = gm
	}
	return res, nil
}

// Render prints the speedup table.
func (r *Fig12Result) Render() string {
	cols := []string{"workload"}
	for _, k := range Fig12Kinds {
		cols = append(cols, k.String())
	}
	tb := stats.NewTable("Figure 12: GC speedup over the DDR4 host", cols...)
	for _, w := range r.Workload {
		var vals []float64
		for _, k := range Fig12Kinds {
			vals = append(vals, r.Speedup[w][k])
		}
		tb.AddFloats(w, 2, vals...)
	}
	var gm []float64
	for _, k := range Fig12Kinds {
		gm = append(gm, r.Geomean[k])
	}
	tb.AddFloats("geomean", 2, gm...)
	return tb.String()
}

// Fig13Result is bandwidth use and locality during GC under Charon.
type Fig13Result struct {
	Workload []string
	// BandwidthGBs[w] per platform kind.
	Bandwidth map[string]map[exec.Kind]float64
	// LocalRatio[w]: fraction of Charon's near-memory accesses serviced by
	// the issuing cube.
	LocalRatio map[string]float64
}

// Fig13Kinds are the bandwidth bars of Figure 13.
var Fig13Kinds = []exec.Kind{exec.KindDDR4, exec.KindHMC, exec.KindCharon}

// Fig13 reproduces Figure 13: Charon's utilized bandwidth exceeds the
// off-chip budgets, with >70% of accesses serviced locally for most
// workloads.
func Fig13(s *Session) (*Fig13Result, error) {
	cfg := s.Config()
	res := &Fig13Result{Workload: cfg.Workloads,
		Bandwidth: map[string]map[exec.Kind]float64{}, LocalRatio: map[string]float64{}}
	bw := make([][]float64, len(cfg.Workloads)) // bw[w][ki] aligned to Fig13Kinds
	local := make([]float64, len(cfg.Workloads))
	for i := range bw {
		bw[i] = make([]float64, len(Fig13Kinds))
	}
	err := cfg.forEachGrid(len(cfg.Workloads), len(Fig13Kinds), func(w, ki int) error {
		t, err := s.replayTotals(cfg.Workloads[w], Fig13Kinds[ki], cfg.Threads)
		if err != nil {
			return err
		}
		bw[w][ki] = t.BandwidthGBs()
		if Fig13Kinds[ki] == exec.KindCharon {
			local[w] = t.Local
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for w, name := range cfg.Workloads {
		res.Bandwidth[name] = map[exec.Kind]float64{}
		for ki, k := range Fig13Kinds {
			res.Bandwidth[name][k] = bw[w][ki]
		}
		res.LocalRatio[name] = local[w]
	}
	return res, nil
}

// Render prints bandwidth bars and the locality line.
func (r *Fig13Result) Render() string {
	cols := []string{"workload"}
	for _, k := range Fig13Kinds {
		cols = append(cols, k.String()+" GB/s")
	}
	cols = append(cols, "local%")
	tb := stats.NewTable("Figure 13: utilized bandwidth during GC and local-access ratio", cols...)
	for _, w := range r.Workload {
		var vals []float64
		for _, k := range Fig13Kinds {
			vals = append(vals, r.Bandwidth[w][k])
		}
		vals = append(vals, r.LocalRatio[w]*100)
		tb.AddFloats(w, 1, vals...)
	}
	return tb.String()
}

// Fig14Prims are the primitives of Figure 14, in the paper's order
// (S: Search, SP: Scan&Push, C: Copy, BC: Bitmap Count).
var Fig14Prims = []gc.Prim{gc.PrimSearch, gc.PrimScanPush, gc.PrimCopy, gc.PrimBitmapCount}

// Fig14Result is the per-primitive speedup of Charon over the DDR4 host.
type Fig14Result struct {
	Workload []string
	// Speedup[w][prim]; 0 when the workload never exercised the primitive.
	Speedup map[string]map[gc.Prim]float64
	// Average[prim] (arithmetic over workloads that exercised it, as the
	// paper's per-primitive averages are).
	Average map[gc.Prim]float64
	// Max[prim].
	Max map[gc.Prim]float64
}

// Fig14 reproduces Figure 14 (paper: Copy ≤26.15x / avg 10.17x, Search
// ≤4.09x / 2.90x, Scan&Push ≤1.86x / 1.20x and sometimes below 1x on the
// ML workloads, Bitmap Count ≤6.11x / 5.63x).
func Fig14(s *Session) (*Fig14Result, error) {
	cfg := s.Config()
	res := &Fig14Result{Workload: cfg.Workloads,
		Speedup: map[string]map[gc.Prim]float64{},
		Average: map[gc.Prim]float64{}, Max: map[gc.Prim]float64{}}
	type cell struct {
		sp float64
		ok bool
	}
	rows := make([][]cell, len(cfg.Workloads)) // rows[w][pi] aligned to Fig14Prims
	err := cfg.forEach(len(cfg.Workloads), func(w int) error {
		base, err := s.replayTotals(cfg.Workloads[w], exec.KindDDR4, cfg.Threads)
		if err != nil {
			return err
		}
		ch, err := s.replayTotals(cfg.Workloads[w], exec.KindCharon, cfg.Threads)
		if err != nil {
			return err
		}
		row := make([]cell, len(Fig14Prims))
		for pi, p := range Fig14Prims {
			if ch.PrimTime[p] == 0 || base.PrimTime[p] == 0 {
				continue
			}
			row[pi] = cell{sp: base.PrimTime[p].Seconds() / ch.PrimTime[p].Seconds(), ok: true}
		}
		rows[w] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	acc := map[gc.Prim][]float64{}
	for w, name := range cfg.Workloads {
		res.Speedup[name] = map[gc.Prim]float64{}
		for pi, p := range Fig14Prims {
			if !rows[w][pi].ok {
				continue
			}
			res.Speedup[name][p] = rows[w][pi].sp
			acc[p] = append(acc[p], rows[w][pi].sp)
		}
	}
	for _, p := range Fig14Prims {
		res.Average[p] = stats.Mean(acc[p])
		res.Max[p] = stats.Max(acc[p])
	}
	return res, nil
}

// Render prints the per-primitive speedups.
func (r *Fig14Result) Render() string {
	cols := []string{"workload"}
	for _, p := range Fig14Prims {
		cols = append(cols, p.String())
	}
	tb := stats.NewTable("Figure 14: per-primitive speedup of Charon over the DDR4 host", cols...)
	for _, w := range r.Workload {
		var vals []float64
		for _, p := range Fig14Prims {
			vals = append(vals, r.Speedup[w][p])
		}
		tb.AddFloats(w, 2, vals...)
	}
	var avg, mx []float64
	for _, p := range Fig14Prims {
		avg = append(avg, r.Average[p])
		mx = append(mx, r.Max[p])
	}
	tb.AddFloats("average", 2, avg...)
	tb.AddFloats("max", 2, mx...)
	return tb.String()
}

// Fig15Threads is the scalability sweep of Figure 15.
var Fig15Threads = []int{1, 2, 4, 8, 16}

// Fig15Kinds are the compared designs.
var Fig15Kinds = []exec.Kind{exec.KindDDR4, exec.KindCharon, exec.KindCharonDistributed}

// Fig15Result is GC throughput vs thread count, normalized to 1-thread
// DDR4, per workload.
type Fig15Result struct {
	Workload []string
	Threads  []int
	// Throughput[w][kind][i] for Threads[i].
	Throughput map[string]map[exec.Kind][]float64
}

// Fig15 reproduces Figure 15: Charon scales with GC threads while DDR4
// flattens on its 34 GB/s budget, and the distributed bitmap-cache/TLB
// design generally beats the unified one at high thread counts.
func Fig15(s *Session) (*Fig15Result, error) {
	cfg := s.Config()
	res := &Fig15Result{Workload: cfg.Workloads, Threads: Fig15Threads,
		Throughput: map[string]map[exec.Kind][]float64{}}
	// Pass 1: record each workload and establish the 1T DDR4 baseline.
	runs := make([]*Run, len(cfg.Workloads))
	bases := make([]float64, len(cfg.Workloads))
	err := cfg.forEach(len(cfg.Workloads), func(w int) error {
		r, err := s.Record(cfg.Workloads[w], cfg.Factor)
		if err != nil {
			return err
		}
		runs[w] = r
		rr, err := s.Replay(r, exec.KindDDR4, 1)
		if err != nil {
			return err
		}
		bases[w] = Sum(exec.KindDDR4, rr, 1).Duration.Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Pass 2: every (workload, design, thread-count) point replays on a
	// fresh platform — the full sweep fans out.
	grid := make([][][]float64, len(cfg.Workloads)) // grid[w][ki][ti]
	for w := range grid {
		grid[w] = make([][]float64, len(Fig15Kinds))
		for ki := range grid[w] {
			grid[w][ki] = make([]float64, len(Fig15Threads))
		}
	}
	nPoints := len(Fig15Kinds) * len(Fig15Threads)
	err = cfg.forEachGrid(len(cfg.Workloads), nPoints, func(w, p int) error {
		ki, ti := p/len(Fig15Threads), p%len(Fig15Threads)
		th := Fig15Threads[ti]
		rr, err := s.Replay(runs[w], Fig15Kinds[ki], th)
		if err != nil {
			return err
		}
		t := Sum(Fig15Kinds[ki], rr, th)
		grid[w][ki][ti] = bases[w] / t.Duration.Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for w, name := range cfg.Workloads {
		res.Throughput[name] = map[exec.Kind][]float64{}
		for ki, k := range Fig15Kinds {
			res.Throughput[name][k] = grid[w][ki]
		}
	}
	return res, nil
}

// Render prints one block per workload.
func (r *Fig15Result) Render() string {
	out := ""
	for _, w := range r.Workload {
		cols := []string{"design"}
		for _, th := range r.Threads {
			cols = append(cols, fmt.Sprintf("%dT", th))
		}
		tb := stats.NewTable(fmt.Sprintf("Figure 15 [%s]: GC throughput vs threads (normalized to 1T DDR4)", w), cols...)
		for _, k := range Fig15Kinds {
			tb.AddFloats(k.String(), 2, r.Throughput[w][k]...)
		}
		out += tb.String() + "\n"
	}
	return out
}

// Fig16Kinds are the placements compared in Figure 16.
var Fig16Kinds = []exec.Kind{exec.KindDDR4, exec.KindCharonCPUSide, exec.KindCharon}

// Fig16Result compares CPU-side and memory-side Charon.
type Fig16Result struct {
	Workload []string
	// Speedup[w][kind] over DDR4.
	Speedup map[string]map[exec.Kind]float64
	// CPUSideRatio is geomean(CPU-side / memory-side) throughput (paper:
	// CPU-side is ~37% lower, i.e. ratio ≈ 0.63).
	CPUSideRatio float64
}

// Fig16 reproduces Figure 16.
func Fig16(s *Session) (*Fig16Result, error) {
	cfg := s.Config()
	res := &Fig16Result{Workload: cfg.Workloads, Speedup: map[string]map[exec.Kind]float64{}}
	rows := make([][]float64, len(cfg.Workloads)) // rows[w][ki] aligned to Fig16Kinds
	err := cfg.forEach(len(cfg.Workloads), func(w int) error {
		base, err := s.replayTotals(cfg.Workloads[w], exec.KindDDR4, cfg.Threads)
		if err != nil {
			return err
		}
		row := make([]float64, len(Fig16Kinds))
		for ki, k := range Fig16Kinds {
			t, err := s.replayTotals(cfg.Workloads[w], k, cfg.Threads)
			if err != nil {
				return err
			}
			row[ki] = base.Duration.Seconds() / t.Duration.Seconds()
		}
		rows[w] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	var ratios []float64
	for w, name := range cfg.Workloads {
		res.Speedup[name] = map[exec.Kind]float64{}
		for ki, k := range Fig16Kinds {
			res.Speedup[name][k] = rows[w][ki]
		}
		ratios = append(ratios, res.Speedup[name][exec.KindCharonCPUSide]/res.Speedup[name][exec.KindCharon])
	}
	ratio, err := stats.Geomean(ratios)
	if err != nil {
		return nil, fmt.Errorf("fig16: %w", err)
	}
	res.CPUSideRatio = ratio
	return res, nil
}

// Render prints the comparison.
func (r *Fig16Result) Render() string {
	cols := []string{"workload"}
	for _, k := range Fig16Kinds {
		cols = append(cols, k.String())
	}
	tb := stats.NewTable("Figure 16: memory-side vs CPU-side Charon (speedup over DDR4)", cols...)
	for _, w := range r.Workload {
		var vals []float64
		for _, k := range Fig16Kinds {
			vals = append(vals, r.Speedup[w][k])
		}
		tb.AddFloats(w, 2, vals...)
	}
	tb.AddRow("CPU-side/memory-side", fmt.Sprintf("%.2f", r.CPUSideRatio))
	return tb.String()
}

// Fig17Kinds are the energy bars of Figure 17.
var Fig17Kinds = []exec.Kind{exec.KindDDR4, exec.KindHMC, exec.KindCharon}

// Fig17Result is GC energy normalized to the DDR4 host.
type Fig17Result struct {
	Workload []string
	// Normalized[w][kind] energy relative to DDR4 (=1.0).
	Normalized map[string]map[exec.Kind]float64
	// Savings[kind] = geomean energy reduction vs DDR4 (paper: Charon
	// saves 60.7% vs DDR4 and 51.6% vs HMC).
	Savings map[exec.Kind]float64
	// CharonAvgPowerW / CharonMaxPowerW reproduce Section 5.3's 2.98 W /
	// 4.51 W accelerator power figures.
	CharonAvgPowerW float64
	CharonMaxPowerW float64
	MaxPowerWork    string
}

// Fig17 reproduces Figure 17 and the Section 5.3 power analysis.
func Fig17(s *Session) (*Fig17Result, error) {
	cfg := s.Config()
	res := &Fig17Result{Workload: cfg.Workloads,
		Normalized: map[string]map[exec.Kind]float64{}, Savings: map[exec.Kind]float64{}}
	rows := make([][]float64, len(cfg.Workloads)) // rows[w][ki] aligned to Fig17Kinds
	charonPower := make([]float64, len(cfg.Workloads))
	err := cfg.forEach(len(cfg.Workloads), func(w int) error {
		base, err := s.replayTotals(cfg.Workloads[w], exec.KindDDR4, cfg.Threads)
		if err != nil {
			return err
		}
		row := make([]float64, len(Fig17Kinds))
		for ki, k := range Fig17Kinds {
			t, err := s.replayTotals(cfg.Workloads[w], k, cfg.Threads)
			if err != nil {
				return err
			}
			row[ki] = float64(t.Energy.Total()) / float64(base.Energy.Total())
			if k == exec.KindCharon {
				charonPower[w] = energy.CharonPower(t.Energy, t.Duration)
			}
		}
		rows[w] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Merge in workload order so the max-power tie-break matches serial.
	norm := map[exec.Kind][]float64{}
	var powers []float64
	for w, name := range cfg.Workloads {
		res.Normalized[name] = map[exec.Kind]float64{}
		for ki, k := range Fig17Kinds {
			res.Normalized[name][k] = rows[w][ki]
			norm[k] = append(norm[k], rows[w][ki])
		}
		powers = append(powers, charonPower[w])
		if charonPower[w] > res.CharonMaxPowerW {
			res.CharonMaxPowerW = charonPower[w]
			res.MaxPowerWork = name
		}
	}
	for _, k := range Fig17Kinds {
		gm, err := stats.Geomean(norm[k])
		if err != nil {
			return nil, fmt.Errorf("fig17 %s: %w", k, err)
		}
		res.Savings[k] = 1 - gm
	}
	res.CharonAvgPowerW = stats.Mean(powers)
	return res, nil
}

// Render prints normalized energy and power.
func (r *Fig17Result) Render() string {
	cols := []string{"workload"}
	for _, k := range Fig17Kinds {
		cols = append(cols, k.String())
	}
	tb := stats.NewTable("Figure 17: GC energy normalized to the DDR4 host", cols...)
	for _, w := range r.Workload {
		var vals []float64
		for _, k := range Fig17Kinds {
			vals = append(vals, r.Normalized[w][k])
		}
		tb.AddFloats(w, 3, vals...)
	}
	tb.AddRow("charon savings vs DDR4", fmt.Sprintf("%.1f%%", r.Savings[exec.KindCharon]*100))
	tb.AddRow("charon avg power", fmt.Sprintf("%.2f W", r.CharonAvgPowerW))
	tb.AddRow("charon max power", fmt.Sprintf("%.2f W (%s)", r.CharonMaxPowerW, r.MaxPowerWork))
	return tb.String()
}
