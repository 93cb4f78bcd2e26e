package experiments

import (
	"strings"
	"sync"
	"testing"

	"charonsim/internal/exec"
	"charonsim/internal/gc"
)

// quickSession is the one session of the figure-shape tests that only
// read results: they share its recordings and replays, so a unit two
// figures need is simulated once per test binary. Tests that count
// records or replays build private sessions.
var quickSession = sync.OnceValue(func() *Session {
	return NewSession(Config{Workloads: []string{"BS", "CC", "ALS"}})
})

// quick returns the shared session over a reduced workload set for fast
// tests; the full six-workload suite runs in the top-level benchmarks.
func quick(t testing.TB) *Session {
	t.Helper()
	return quickSession()
}

// skipIfShort gates the slow figure-shape tests out of -short runs. The
// CI race job runs with -short: the race detector multiplies simulation
// time ~10x, and race coverage of the parallel harness comes from the
// concurrency-focused tests (session_test.go), which never skip.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("slow shape test skipped in -short mode")
	}
}

func TestFig2OverheadShape(t *testing.T) {
	skipIfShort(t)
	s := quick(t)
	r, err := Fig2(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.Workload {
		row := r.Overhead[w]
		if len(row) != len(Fig2Factors) {
			t.Fatalf("%s: row %v", w, row)
		}
		// Overhead at the minimum heap must exceed overhead at 2x.
		if row[0] <= row[len(row)-1] {
			t.Fatalf("%s: overhead %v not decreasing with heap size", w, row)
		}
		if row[0] <= 0 {
			t.Fatalf("%s: zero overhead at min heap", w)
		}
	}
	if !strings.Contains(r.Render(), "Figure 2") {
		t.Fatal("render")
	}
}

func TestFig4KeyPrimitivesDominate(t *testing.T) {
	skipIfShort(t)
	s := quick(t)
	for _, kind := range []gc.Kind{gc.Minor, gc.Major} {
		r, err := Fig4(s, kind)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range r.Workload {
			if r.KeyShare[w] < 0.5 {
				t.Fatalf("%vGC %s: offloadable share %.2f < 0.5 (paper: 0.71-0.93)", kind, w, r.KeyShare[w])
			}
			if r.KeyShare[w] > 0.9999 {
				t.Fatalf("%vGC %s: share %.5f leaves no residual work at all", kind, w, r.KeyShare[w])
			}
		}
		if !strings.Contains(r.Render(), "Figure 4") {
			t.Fatal("render")
		}
	}
}

func TestFig12SpeedupShape(t *testing.T) {
	skipIfShort(t)
	s := quick(t)
	r, err := Fig12(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.Workload {
		sp := r.Speedup[w]
		if sp[exec.KindDDR4] != 1.0 {
			t.Fatalf("%s: DDR4 baseline %v != 1", w, sp[exec.KindDDR4])
		}
		if !(sp[exec.KindHMC] > 1.0 && sp[exec.KindCharon] > sp[exec.KindHMC] && sp[exec.KindIdeal] > sp[exec.KindCharon]) {
			t.Fatalf("%s: ordering violated: %v", w, sp)
		}
	}
	gm := r.Geomean[exec.KindCharon]
	if gm < 2.0 || gm > 12.0 {
		t.Fatalf("Charon geomean %.2fx outside plausible band (paper: 3.29x)", gm)
	}
	hmc := r.Geomean[exec.KindHMC]
	if hmc < 1.02 || hmc > 2.6 {
		t.Fatalf("HMC geomean %.2fx outside plausible band (paper: 1.21x)", hmc)
	}
	if !strings.Contains(r.Render(), "geomean") {
		t.Fatal("render")
	}
}

func TestFig13BandwidthShape(t *testing.T) {
	skipIfShort(t)
	s := quick(t)
	r, err := Fig13(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.Workload {
		bw := r.Bandwidth[w]
		// DDR4 bandwidth is bounded by 34 GB/s; Charon exceeds every
		// off-chip budget the host could use.
		if bw[exec.KindDDR4] > 34.5 {
			t.Fatalf("%s: DDR4 bandwidth %v exceeds cap", w, bw[exec.KindDDR4])
		}
		if bw[exec.KindCharon] <= bw[exec.KindDDR4] {
			t.Fatalf("%s: Charon bandwidth %v not above DDR4 %v", w, bw[exec.KindCharon], bw[exec.KindDDR4])
		}
		lr := r.LocalRatio[w]
		if lr <= 0.25 || lr > 1 {
			t.Fatalf("%s: local ratio %v implausible", w, lr)
		}
	}
}

func TestFig14PerPrimitiveShape(t *testing.T) {
	skipIfShort(t)
	s := quick(t)
	r, err := Fig14(s)
	if err != nil {
		t.Fatal(err)
	}
	// Copy must be the biggest winner (paper: 10.17x average), and every
	// exercised primitive's average must be meaningful.
	if r.Average[gc.PrimCopy] < 3 {
		t.Fatalf("Copy average %.2fx too low", r.Average[gc.PrimCopy])
	}
	if r.Average[gc.PrimCopy] <= r.Average[gc.PrimScanPush] {
		t.Fatalf("Copy (%.2fx) should beat Scan&Push (%.2fx)",
			r.Average[gc.PrimCopy], r.Average[gc.PrimScanPush])
	}
	if r.Max[gc.PrimCopy] < r.Average[gc.PrimCopy] {
		t.Fatal("max below average")
	}
	if !strings.Contains(r.Render(), "Figure 14") {
		t.Fatal("render")
	}
}

func TestFig15Scalability(t *testing.T) {
	skipIfShort(t)
	s := NewSession(Config{Workloads: []string{"BS"}})
	r, err := Fig15(s)
	if err != nil {
		t.Fatal(err)
	}
	th := r.Throughput["BS"]
	ddr, charon := th[exec.KindDDR4], th[exec.KindCharon]
	// 1-thread DDR4 is the normalization point.
	if ddr[0] < 0.99 || ddr[0] > 1.01 {
		t.Fatalf("DDR4 1T = %v, want 1.0", ddr[0])
	}
	// Charon at 8T should scale much better than DDR4 at 8T.
	if charon[3] <= ddr[3] {
		t.Fatalf("Charon 8T (%.2f) not above DDR4 8T (%.2f)", charon[3], ddr[3])
	}
	// Charon must scale from 1 to 8 threads.
	if charon[3] < 1.5*charon[0] {
		t.Fatalf("Charon scaling flat: 1T=%.2f 8T=%.2f", charon[0], charon[3])
	}
	// Distributed >= unified at 16 threads.
	dist := th[exec.KindCharonDistributed]
	if dist[4] < charon[4]*0.95 {
		t.Fatalf("distributed (%.2f) below unified (%.2f) at 16T", dist[4], charon[4])
	}
}

func TestFig16CPUSideShape(t *testing.T) {
	skipIfShort(t)
	s := quick(t)
	r, err := Fig16(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.CPUSideRatio >= 1 {
		t.Fatalf("CPU-side ratio %.2f should be below 1 (paper: ~0.63)", r.CPUSideRatio)
	}
	if r.CPUSideRatio < 0.1 {
		t.Fatalf("CPU-side ratio %.2f implausibly low", r.CPUSideRatio)
	}
	for _, w := range r.Workload {
		if r.Speedup[w][exec.KindCharonCPUSide] <= 1.0 {
			t.Fatalf("%s: CPU-side Charon (%.2fx) should still beat the plain host", w,
				r.Speedup[w][exec.KindCharonCPUSide])
		}
	}
}

func TestFig17EnergyShape(t *testing.T) {
	skipIfShort(t)
	s := quick(t)
	r, err := Fig17(s)
	if err != nil {
		t.Fatal(err)
	}
	save := r.Savings[exec.KindCharon]
	if save < 0.30 || save > 0.90 {
		t.Fatalf("Charon energy savings %.1f%% outside plausible band (paper: 60.7%%)", save*100)
	}
	if r.Savings[exec.KindHMC] >= save {
		t.Fatal("HMC-only savings should be below Charon's")
	}
	if r.CharonAvgPowerW <= 0 || r.CharonMaxPowerW < r.CharonAvgPowerW {
		t.Fatalf("power stats: avg=%v max=%v", r.CharonAvgPowerW, r.CharonMaxPowerW)
	}
	if r.CharonAvgPowerW > 30 {
		t.Fatalf("accelerator power %v W implausible (paper: 2.98 W)", r.CharonAvgPowerW)
	}
	if !strings.Contains(r.Render(), "savings") {
		t.Fatal("render")
	}
}

func TestTablesRender(t *testing.T) {
	if !strings.Contains(RenderTable1(), "ParallelScavenge") {
		t.Fatal("table 1")
	}
	if !strings.Contains(RenderTable2(), "320 GB/s") {
		t.Fatal("table 2")
	}
	t3 := RenderTable3()
	for _, w := range []string{"BS", "KM", "LR", "CC", "PR", "ALS"} {
		if !strings.Contains(t3, w) {
			t.Fatalf("table 3 missing %s", w)
		}
	}
	if !strings.Contains(RenderTable4(), "1.9470") {
		t.Fatal("table 4 total")
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 3 {
		t.Fatal("rows")
	}
	// CMS has no compaction: BitmapCount not applicable.
	if rows[2].Collector != "CMS" || rows[2].BitmapCount != NotApplicable {
		t.Fatal("CMS row")
	}
	if rows[1].CopySearch != AsIs || rows[0].ScanPush != AsIs {
		t.Fatal("applicability drifted from Table 1")
	}
	if NotApplicable.String() != "x" || AsIs.String() != "vv" || MinorFix.String() != "v" {
		t.Fatal("notation")
	}
}

func TestThermal(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"ALS"}})
	r, err := Thermal(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.MaxPowerW <= 0 || r.DensityMWMM2 <= 0 {
		t.Fatalf("thermal %+v", r)
	}
	if !strings.Contains(r.Render(), "mW/mm2") {
		t.Fatal("render")
	}
}

func TestSessionCaching(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"BS"}})
	a, err := s.Record("BS", 1.5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := s.Record("BS", 1.5)
	if a != b {
		t.Fatal("record not cached")
	}
	c, _ := s.Record("BS", 1.25)
	if c == a {
		t.Fatal("different factors must not share a record")
	}
	if _, err := s.Record("nope", 1.5); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestCollectorStudy(t *testing.T) {
	skipIfShort(t)
	s := NewSession(Config{Workloads: []string{"BS", "CC"}})
	r, err := CollectorStudy(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range r.Workload {
		for _, m := range r.Modes {
			if r.Speedup[w][m] <= 1.0 {
				t.Fatalf("%s/%v: Charon should accelerate every collector (got %.2fx)", w, m, r.Speedup[w][m])
			}
			if r.FullGCs[w][m] == 0 {
				t.Fatalf("%s/%v: no full collections recorded", w, m)
			}
		}
		// CMS never compacts: zero Bitmap Count (Table 1's x).
		if r.BitmapCountShare[w][gc.ModeCMS] > 0.001 {
			t.Fatalf("%s: CMS spent %.4f in Bitmap Count", w, r.BitmapCountShare[w][gc.ModeCMS])
		}
		// PS and G1 both use Bitmap Count (Table 1's checkmarks).
		if r.BitmapCountShare[w][gc.ModePS] == 0 {
			t.Fatalf("%s: PS recorded no Bitmap Count time", w)
		}
		if r.BitmapCountShare[w][gc.ModeG1] == 0 {
			t.Fatalf("%s: G1 recorded no Bitmap Count time", w)
		}
	}
	for _, m := range r.Modes {
		if r.Geomean[m] <= 1.0 {
			t.Fatalf("%v geomean %.2f", m, r.Geomean[m])
		}
	}
	if !strings.Contains(r.Render(), "geomean") {
		t.Fatal("render")
	}
}

func TestAblationMAI(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"ALS"}})
	r, err := AblateMAI(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Speedup) != len(r.Points) {
		t.Fatal("shape")
	}
	// More MAI entries must never hurt a bandwidth-hungry workload, and
	// MAI=4 must be measurably worse than the paper's 32.
	if r.Speedup[0] >= r.Speedup[3] {
		t.Fatalf("MAI=4 (%.2f) not worse than MAI=32 (%.2f)", r.Speedup[0], r.Speedup[3])
	}
	if r.Points[r.Default].Label != "MAI=32" {
		t.Fatal("default point mislabeled")
	}
	if !strings.Contains(r.Render(), "(paper)") {
		t.Fatal("render")
	}
}

func TestAblationStreamGrain(t *testing.T) {
	s := NewSession(Config{Workloads: []string{"ALS"}})
	r, err := AblateStreamGrain(s)
	if err != nil {
		t.Fatal(err)
	}
	// 256B (the HMC max) should beat 64B for huge copies.
	if r.Speedup[len(r.Speedup)-1] <= r.Speedup[0] {
		t.Fatalf("grain=256B (%.2f) not above grain=64B (%.2f)",
			r.Speedup[len(r.Speedup)-1], r.Speedup[0])
	}
}

func TestAblationTopology(t *testing.T) {
	skipIfShort(t)
	s := NewSession(Config{Workloads: []string{"CC"}})
	r, err := AblateTopology(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Speedup) != 2 || r.Speedup[0] <= 0 || r.Speedup[1] <= 0 {
		t.Fatalf("topology sweep %v", r.Speedup)
	}
	// The star's two-hop worst case should not lose to the chain's
	// three-hop worst case for the reference-chasing graph workload.
	if r.Speedup[1] > r.Speedup[0]*1.05 {
		t.Fatalf("chain (%.2f) implausibly above star (%.2f)", r.Speedup[1], r.Speedup[0])
	}
}

func TestAblationsComplete(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep is slow")
	}
	s := NewSession(Config{Workloads: []string{"BS"}})
	rs, err := Ablations(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 5 {
		t.Fatalf("%d sweeps", len(rs))
	}
	if !strings.Contains(RenderAblations(rs), "bitmap cache") {
		t.Fatal("render")
	}
}
