package experiments

import (
	"fmt"

	"charonsim/internal/charon"
	"charonsim/internal/exec"
	"charonsim/internal/hmc"
	"charonsim/internal/stats"
)

// AblationPoint is one configuration in a design-space sweep.
type AblationPoint struct {
	Label string
	Opt   exec.Options
}

// AblationResult holds Charon GC speedup over the DDR4 host at each point
// of one sweep, geomeaned over the session's workloads.
type AblationResult struct {
	Name   string
	Points []AblationPoint
	// Speedup[i] corresponds to Points[i].
	Speedup []float64
	// Default is the index of the Table 2 configuration within Points.
	Default int
}

// ablationWorkloads picks the framework-representative subset (one per
// demographic: Spark ML, graph, huge-object) from the session's set, so
// the 17-point design sweep stays tractable.
func ablationWorkloads(cfg Config) []string {
	want := map[string]bool{"BS": true, "CC": true, "ALS": true}
	var out []string
	for _, w := range cfg.Workloads {
		if want[w] {
			out = append(out, w)
		}
	}
	if len(out) == 0 {
		out = cfg.Workloads
	}
	return out
}

// runAblation replays the representative workloads on Charon at every
// sweep point. The (point, workload) grid fans out across the session's
// parallelism. Each cell is an ordinary session replay unit keyed by the
// point's options, so it is memoized and checkpointed, and a sweep's Table 2 point is the same unit
// as every other sweep's and as Fig 12's Charon replay.
func runAblation(s *Session, name string, points []AblationPoint, def int) (*AblationResult, error) {
	cfg := s.Config()
	res := &AblationResult{Name: name, Points: points, Default: def}
	wls := ablationWorkloads(cfg)
	grid := make([][]float64, len(points)) // grid[pt][w] speedup
	for i := range grid {
		grid[i] = make([]float64, len(wls))
	}
	err := cfg.forEachGrid(len(points), len(wls), func(pi, wi int) error {
		w := wls[wi]
		run, err := s.Record(w, cfg.Factor)
		if err != nil {
			return err
		}
		base, err := s.replayTotals(w, exec.KindDDR4, cfg.Threads)
		if err != nil {
			return err
		}
		results, err := s.replay(replayUnit{r: run, kind: exec.KindCharon,
			threads: cfg.Threads, opt: points[pi].Opt})
		if err != nil {
			return err
		}
		t := Sum(exec.KindCharon, results, cfg.Threads)
		grid[pi][wi] = base.Duration.Seconds() / t.Duration.Seconds()
		return nil
	})
	if err != nil {
		return nil, err
	}
	for pi := range points {
		gm, err := stats.Geomean(grid[pi])
		if err != nil {
			return nil, fmt.Errorf("ablation %s: %w", points[pi].Label, err)
		}
		res.Speedup = append(res.Speedup, gm)
	}
	return res, nil
}

// charonOpt builds an Options with one accelerator field customized.
func charonOpt(mutate func(*charon.Config)) exec.Options {
	cfg := charon.DefaultConfig()
	mutate(&cfg)
	return exec.Options{CharonConfig: &cfg}
}

// AblateMAI sweeps the MAI request-buffer depth — the structure that
// bounds each cube's in-flight memory parallelism (Section 4.1).
func AblateMAI(s *Session) (*AblationResult, error) {
	var pts []AblationPoint
	def := 0
	for i, n := range []int{4, 8, 16, 32, 64} {
		n := n
		pts = append(pts, AblationPoint{
			Label: fmt.Sprintf("MAI=%d", n),
			Opt:   charonOpt(func(c *charon.Config) { c.MAIEntries = n }),
		})
		if n == 32 {
			def = i
		}
	}
	return runAblation(s, "MAI entries", pts, def)
}

// AblateStreamGrain sweeps the Copy/Search access granularity (the paper
// uses the HMC maximum of 256 B; smaller grains waste request slots).
func AblateStreamGrain(s *Session) (*AblationResult, error) {
	var pts []AblationPoint
	def := 0
	for i, g := range []uint64{64, 128, 256} {
		g := g
		pts = append(pts, AblationPoint{
			Label: fmt.Sprintf("grain=%dB", g),
			Opt:   charonOpt(func(c *charon.Config) { c.StreamGrain = g }),
		})
		if g == 256 {
			def = i
		}
	}
	return runAblation(s, "Copy/Search stream granularity", pts, def)
}

// AblateBitmapCache sweeps the bitmap cache capacity (Section 4.5's 8 KB).
func AblateBitmapCache(s *Session) (*AblationResult, error) {
	var pts []AblationPoint
	def := 0
	for i, kb := range []uint64{1, 4, 8, 32} {
		kb := kb
		pts = append(pts, AblationPoint{
			Label: fmt.Sprintf("bmcache=%dKB", kb),
			Opt:   charonOpt(func(c *charon.Config) { c.BitmapCacheBytes = kb << 10 }),
		})
		if kb == 8 {
			def = i
		}
	}
	return runAblation(s, "bitmap cache capacity", pts, def)
}

// AblateUnits sweeps the per-cube Copy/Search unit count (Table 2: 2).
func AblateUnits(s *Session) (*AblationResult, error) {
	var pts []AblationPoint
	def := 0
	for i, n := range []int{1, 2, 4} {
		n := n
		pts = append(pts, AblationPoint{
			Label: fmt.Sprintf("copy-units=%d/cube", n),
			Opt:   charonOpt(func(c *charon.Config) { c.CopySearchPerCube = n }),
		})
		if n == 2 {
			def = i
		}
	}
	return runAblation(s, "Copy/Search units per cube", pts, def)
}

// AblateTopology compares the star interconnect against a daisy chain
// (Section 4.6 discusses topology flexibility; [71] studies bandwidth-
// scalable alternatives).
func AblateTopology(s *Session) (*AblationResult, error) {
	pts := []AblationPoint{
		{Label: "star", Opt: exec.Options{Topology: hmc.Star}},
		{Label: "chain", Opt: exec.Options{Topology: hmc.Chain}},
	}
	return runAblation(s, "cube topology", pts, 0)
}

// Ablations runs every design-space sweep, in a fixed order. The sweeps
// themselves run one after another (each already fans its point grid out),
// so the combined goroutine count stays bounded by the configured
// parallelism.
func Ablations(s *Session) ([]*AblationResult, error) {
	sweeps := []func(*Session) (*AblationResult, error){
		AblateMAI, AblateStreamGrain, AblateBitmapCache, AblateUnits, AblateTopology,
	}
	out := make([]*AblationResult, len(sweeps))
	for i, f := range sweeps {
		r, err := f(s)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// Render prints one sweep.
func (r *AblationResult) Render() string {
	tb := stats.NewTable(fmt.Sprintf("Ablation: %s (Charon geomean speedup over DDR4)", r.Name),
		"config", "speedup")
	for i, pt := range r.Points {
		label := pt.Label
		if i == r.Default {
			label += " (paper)"
		}
		tb.AddRow(label, fmt.Sprintf("%.2f", r.Speedup[i]))
	}
	return tb.String()
}

// RenderAblations prints all sweeps.
func RenderAblations(rs []*AblationResult) string {
	out := ""
	for _, r := range rs {
		out += r.Render() + "\n"
	}
	return out
}
