package charonsim

// One benchmark per table and figure of the paper's evaluation. Each
// bench regenerates its experiment and prints the same rows/series the
// paper reports (once), plus reports the headline quantity as a benchmark
// metric so `go test -bench` output doubles as the reproduction record:
//
//	go test -bench=. -benchmem
//
// Shapes to expect against the paper (EXPERIMENTS.md has the full
// comparison): HMC ≈1.2x, Charon ≈3x geomean GC speedup (paper 3.29x),
// Copy the largest per-primitive winner, >60% energy savings, DDR4
// flat-lining in the thread sweep.

import (
	"fmt"
	"testing"
	"time"

	"charonsim/internal/energy"
	"charonsim/internal/exec"
	"charonsim/internal/experiments"
	"charonsim/internal/gc"
	"charonsim/internal/stats"
)

// benchSession builds a fresh session for one benchmark iteration and
// records its workloads at the session's heap factor with the timer
// stopped (recording is functional work; replay is what we measure). A
// session memoizes replays, so reusing one across iterations would time
// memo hits after the first. Recordings an experiment needs at other
// factors or collector modes (Fig 2, the collector study) stay timed.
func benchSession(b *testing.B, cfg experiments.Config) *experiments.Session {
	b.StopTimer()
	defer b.StartTimer()
	s := experiments.NewSession(cfg)
	for _, w := range s.Config().Workloads {
		if _, err := s.Record(w, s.Config().Factor); err != nil {
			b.Fatal(err)
		}
	}
	return s
}

func printOnce(b *testing.B, i int, s string) {
	if i == 0 {
		fmt.Println(s)
	}
	_ = b
}

func BenchmarkFig02GCOverhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Fig2(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		var minHeap, twoX []float64
		for _, w := range r.Workload {
			minHeap = append(minHeap, r.Overhead[w][0])
			twoX = append(twoX, r.Overhead[w][len(r.Overhead[w])-1])
		}
		b.ReportMetric(stats.Max(minHeap)*100, "max-overhead-at-min-%")
		b.ReportMetric(stats.Mean(twoX)*100, "mean-overhead-at-2x-%")
	}
}

func BenchmarkFig04MinorBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Fig4(s, gc.Minor)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		var key []float64
		for _, w := range r.Workload {
			key = append(key, r.KeyShare[w])
		}
		b.ReportMetric(stats.Mean(key)*100, "key-prims-share-%")
	}
}

func BenchmarkFig04MajorBreakdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Fig4(s, gc.Major)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		var key []float64
		for _, w := range r.Workload {
			key = append(key, r.KeyShare[w])
		}
		b.ReportMetric(stats.Mean(key)*100, "key-prims-share-%")
	}
}

func BenchmarkFig12Speedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Fig12(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		b.ReportMetric(r.Geomean[exec.KindHMC], "hmc-geomean-x")
		b.ReportMetric(r.Geomean[exec.KindCharon], "charon-geomean-x")
		b.ReportMetric(r.Geomean[exec.KindIdeal], "ideal-geomean-x")
	}
}

func BenchmarkFig13Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Fig13(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		var bw, local []float64
		for _, w := range r.Workload {
			bw = append(bw, r.Bandwidth[w][exec.KindCharon])
			local = append(local, r.LocalRatio[w])
		}
		b.ReportMetric(stats.Max(bw), "max-charon-GBps")
		b.ReportMetric(stats.Mean(local)*100, "mean-local-%")
	}
}

func BenchmarkFig14PerPrimitive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Fig14(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		b.ReportMetric(r.Average[gc.PrimCopy], "copy-avg-x")
		b.ReportMetric(r.Max[gc.PrimCopy], "copy-max-x")
		b.ReportMetric(r.Average[gc.PrimSearch], "search-avg-x")
		b.ReportMetric(r.Average[gc.PrimScanPush], "scanpush-avg-x")
		b.ReportMetric(r.Average[gc.PrimBitmapCount], "bitmapcount-avg-x")
	}
}

func BenchmarkFig15Scalability(b *testing.B) {
	// The full 5-point thread sweep over 3 designs is the most expensive
	// experiment; run it over the framework-representative subset.
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{Workloads: []string{"BS", "CC", "ALS"}})
		r, err := experiments.Fig15(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		var ddr8, charon8 []float64
		for _, w := range r.Workload {
			ddr8 = append(ddr8, r.Throughput[w][exec.KindDDR4][3])
			charon8 = append(charon8, r.Throughput[w][exec.KindCharon][3])
		}
		b.ReportMetric(stats.MustGeomean(ddr8), "ddr4-8T-x")
		b.ReportMetric(stats.MustGeomean(charon8), "charon-8T-x")
	}
}

func BenchmarkFig16CPUSide(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Fig16(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		b.ReportMetric(r.CPUSideRatio, "cpuside-over-memside")
	}
}

func BenchmarkFig17Energy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Fig17(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		b.ReportMetric(r.Savings[exec.KindCharon]*100, "charon-savings-%")
		b.ReportMetric(r.Savings[exec.KindHMC]*100, "hmc-savings-%")
		b.ReportMetric(r.CharonAvgPowerW, "charon-avg-W")
		b.ReportMetric(r.CharonMaxPowerW, "charon-max-W")
	}
}

func BenchmarkTable1Applicability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printOnce(b, i, experiments.RenderTable1())
	}
}

func BenchmarkTable2Parameters(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printOnce(b, i, experiments.RenderTable2())
	}
}

func BenchmarkTable3Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printOnce(b, i, experiments.RenderTable3())
	}
}

func BenchmarkTable4Area(b *testing.B) {
	for i := 0; i < b.N; i++ {
		printOnce(b, i, experiments.RenderTable4())
		b.ReportMetric(energy.TotalArea(), "total-mm2")
		b.ReportMetric(energy.AreaFraction()*100, "logic-layer-%")
	}
}

func BenchmarkThermal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{})
		r, err := experiments.Thermal(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		b.ReportMetric(r.AvgPowerW, "avg-W")
		b.ReportMetric(r.DensityMWMM2, "mW-per-mm2")
	}
}

func BenchmarkTable1CollectorStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{Workloads: []string{"BS", "CC", "ALS"}})
		r, err := experiments.CollectorStudy(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, r.Render())
		b.ReportMetric(r.Geomean[gc.ModePS], "ps-geomean-x")
		b.ReportMetric(r.Geomean[gc.ModeG1], "g1-geomean-x")
		b.ReportMetric(r.Geomean[gc.ModeCMS], "cms-geomean-x")
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := benchSession(b, experiments.Config{Workloads: []string{"BS", "ALS"}})
		rs, err := experiments.Ablations(s)
		if err != nil {
			b.Fatal(err)
		}
		printOnce(b, i, experiments.RenderAblations(rs))
	}
}

// suiteSerialVsParallel runs RunAll twice — serial, then at parallelism
// 8 — and reports both wall clocks plus the speedup as benchmark metrics.
// Because every report is byte-identical across parallelism levels (the
// determinism tests enforce this), the two runs are directly comparable.
func suiteSerialVsParallel(b *testing.B, workloads []string) {
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		serialReports, err := RunAll(Config{Workloads: workloads, Parallelism: -1})
		if err != nil {
			b.Fatal(err)
		}
		serial := time.Since(t0).Seconds()

		t0 = time.Now()
		parReports, err := RunAll(Config{Workloads: workloads, Parallelism: 8})
		if err != nil {
			b.Fatal(err)
		}
		par := time.Since(t0).Seconds()

		for j := range serialReports {
			if serialReports[j].Text != parReports[j].Text {
				b.Fatalf("%s: parallel output diverged from serial", serialReports[j].ID)
			}
		}
		b.ReportMetric(serial, "serial-s")
		b.ReportMetric(par, "parallel8-s")
		b.ReportMetric(serial/par, "speedup-x")
	}
}

// BenchmarkSuiteSerialVsParallel measures the full suite (all figures and
// tables, all six workloads) serially vs at parallelism 8. On an N-core
// host (N >= 8) expect speedup-x >= 2; on a single core it stays ~1.
func BenchmarkSuiteSerialVsParallel(b *testing.B) {
	suiteSerialVsParallel(b, nil)
}

// BenchmarkSuiteQuickSerialVsParallel is the same comparison over the
// framework-representative subset, for quick parallel-efficiency checks.
func BenchmarkSuiteQuickSerialVsParallel(b *testing.B) {
	suiteSerialVsParallel(b, []string{"BS", "CC", "ALS"})
}

// BenchmarkRunAll measures the whole experiment suite end to end on one
// workload, serially: every figure and table, functional recording plus
// all platform replays — the wall-clock cost of a full sweep. Run it
// with `go test -bench BenchmarkRunAll -benchtime 1x`.
func BenchmarkRunAll(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reports, err := RunAll(Config{Workloads: []string{"BS"}, Parallelism: -1})
		if err != nil {
			b.Fatal(err)
		}
		if len(reports) == 0 {
			b.Fatal("no reports")
		}
	}
}

// BenchmarkEndToEnd measures the full pipeline cost for one workload:
// functional GC recording plus a Charon replay (the unit of work behind
// every figure).
func BenchmarkEndToEnd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rec, err := Record("KM", 1.5)
		if err != nil {
			b.Fatal(err)
		}
		st, err := rec.SimulateGC(PlatformCharon, 8)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(st.Bandwidth, "GBps")
		}
	}
}
