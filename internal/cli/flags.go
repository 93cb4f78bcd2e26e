package cli

import (
	"flag"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"charonsim"
	"charonsim/internal/experiments"
)

// SimFlags is the charonsim command's simulation-configuration flag set:
// one place defines the flag names, defaults and help strings, and one
// place maps them onto a charonsim.Config. charond does not register
// them: each job's JSON body carries its own threads, heap factor,
// workloads, parallelism and run timeout.
type SimFlags struct {
	Threads       int
	Factor        float64
	Workloads     string
	Parallel      int
	MetricsPath   string
	TracePath     string
	RunTimeout    time.Duration
	CheckpointDir string
}

// Register installs the simulation flags on fs.
func (f *SimFlags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Threads, "threads", experiments.DefaultThreads, "GC thread count")
	fs.Float64Var(&f.Factor, "factor", experiments.DefaultFactor, "heap overprovisioning factor (1.0 = minimum heap)")
	fs.StringVar(&f.Workloads, "workloads", "", "comma-separated workload subset (default: all six)")
	fs.IntVar(&f.Parallel, "parallel", 0, "max concurrent simulations (0 = GOMAXPROCS, -1 = serial); output is identical at any setting")
	fs.StringVar(&f.MetricsPath, "metrics", "", "write a component-counter snapshot here after the run (.csv = CSV, otherwise JSON)")
	fs.StringVar(&f.TracePath, "trace", "", "write a chrome://tracing JSON event trace here (JSON only; requires -metrics)")
	fs.DurationVar(&f.RunTimeout, "run-timeout", 0, "wall-clock budget per replay unit, enforced by the replay watchdog heartbeat (0 = unbounded)")
	fs.StringVar(&f.CheckpointDir, "checkpoint-dir", "", "persist each completed replay unit here, ablation points included; re-running after an interruption resumes, executing only the missing units (incompatible with -trace)")
}

// Config maps the parsed flags onto a charonsim.Config. The -workloads
// string is tokenized with SplitWorkloads, so whitespace and empty tokens
// are tolerated; the Config is not yet validated — callers run
// Config.Validate for the full cross-field checks.
func (f *SimFlags) Config() (charonsim.Config, error) {
	cfg := charonsim.Config{Threads: f.Threads, HeapFactor: f.Factor, Parallelism: f.Parallel,
		MetricsPath: f.MetricsPath, TracePath: f.TracePath,
		RunTimeout: f.RunTimeout, CheckpointDir: f.CheckpointDir}
	if f.Workloads != "" {
		wl, err := SplitWorkloads(f.Workloads)
		if err != nil {
			return cfg, err
		}
		cfg.Workloads = wl
	}
	return cfg, nil
}

// SplitWorkloads tokenizes a comma-separated workload list the way users
// actually type it: tokens are whitespace-trimmed and empty tokens are
// dropped, so "BS, KM" and "BS,,KM" both mean {BS, KM}. A non-empty input
// that yields no tokens at all (",", " , ") is a clear error rather than
// an empty list — an empty list silently means "all workloads", which is
// never what someone passing -workloads intended.
func SplitWorkloads(s string) ([]string, error) {
	names := CleanWorkloads(strings.Split(s, ","))
	if len(names) == 0 {
		return nil, fmt.Errorf("-workloads %q contains no workload names (expected comma-separated codes, e.g. %q)", s, "BS,KM")
	}
	return names, nil
}

// CleanWorkloads trims whitespace from each name and drops empty tokens.
// It returns nil (not an empty non-nil slice) when nothing survives, so
// callers can distinguish "nothing selected" with a plain len check.
func CleanWorkloads(names []string) []string {
	var out []string
	for _, n := range names {
		if n = strings.TrimSpace(n); n != "" {
			out = append(out, n)
		}
	}
	return out
}

// SplitFloats tokenizes a comma-separated float list with the same
// tolerance SplitWorkloads gives names: whitespace-trimmed, empty tokens
// dropped, and a non-empty input yielding nothing at all is an error. A
// malformed number names the offending token.
func SplitFloats(s string) ([]float64, error) {
	var out []float64
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		v, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("%q is not a number (in float list %q)", tok, s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%q contains no numbers (expected comma-separated floats, e.g. %q)", s, "1.2,1.5,2.0")
	}
	return out, nil
}

// SplitInts tokenizes a comma-separated integer list; same tolerance and
// error conventions as SplitFloats.
func SplitInts(s string) ([]int, error) {
	var out []int
	for _, tok := range strings.Split(s, ",") {
		if tok = strings.TrimSpace(tok); tok == "" {
			continue
		}
		v, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer (in int list %q)", tok, s)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%q contains no integers (expected comma-separated ints, e.g. %q)", s, "4,8,16")
	}
	return out, nil
}

// RenderReports writes experiment reports in the CLI's output format. The
// charond result endpoint uses the same function, which is what makes a
// served job's report byte-identical to the equivalent CLI invocation
// (minus the CLI's wall-clock trailer).
func RenderReports(w io.Writer, reports []*charonsim.Report) {
	for _, r := range reports {
		fmt.Fprintf(w, "== %s: %s ==\n%s\n", r.ID, r.Title, r.Text)
	}
}
