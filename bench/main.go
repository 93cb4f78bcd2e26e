// Command bench is the repository's benchmark: it drives the simulator's
// layers from outside, through their exported functions, on four
// workloads, checks every output against committed digests, and prints
// one JSON result line. See README.md for the workloads and metrics.
//
// From the repository root:
//
//	bash bench/run.sh --workload replay-host --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 1 --out results/new/seed1.jsonl
//	bash bench/run.sh --compare results/old results/new
//	bash bench/run.sh --update
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	osexec "os/exec"
	"path/filepath"
	"runtime/pprof"
	"strconv"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// traceDir is where traced runs write their spans and CPU profiles; the
// benchmark runs from the repository root.
const traceDir = ".bench_build/trace"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line the benchmark prints last.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is the full result that -out keeps and -compare reads. Raw
// holds setup_s and wall_s as the clock read, before the rescaling to
// reference host speed.
type record struct {
	Workload string             `json:"workload"`
	Seconds  int                `json:"seconds"`
	Trace    bool               `json:"trace"`
	Oracle   string             `json:"oracle"`
	Env      environment        `json:"env"`
	Raw      map[string]float64 `json:"raw"`
	summary
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run, one of %v, or all", workloadNames))
	seed := fs.Int64("seed", 1, "chooses and orders the workload's inputs")
	secs := fs.Int("seconds", 15, "how long one run measures, 1 to 60")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics, writing spans and a CPU profile under "+traceDir)
	out := fs.String("out", "", "append each run's full result record to this file")
	compare := fs.Bool("compare", false, "compare two directories of result records: -compare OLD NEW")
	upd := fs.Bool("update", false, "recompute the expected digests into bench/testdata")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare OLD NEW")
			return 2
		}
		if err := runCompare("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "compare:", err)
			return 1
		}
		return 0
	case *upd:
		if err := update(filepath.Join("bench", "testdata")); err != nil {
			fmt.Fprintln(stderr, "update:", err)
			return 1
		}
		return 0
	case *workload == "" || *secs < 1 || *secs > 60 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "bench: -workload is required, -seconds must be 1 to 60 and -trace 0 or 1")
		fs.Usage()
		return 2
	case *workload == "all":
		return runEach(stdout, stderr, "-seed", strconv.FormatInt(*seed, 10), "-seconds", strconv.Itoa(*secs),
			"-trace", strconv.Itoa(*trace), "-out", *out)
	}
	w, err := plan(*workload, *seed, *secs)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	rec, err := measure(w, *workload, *seed, *secs, *trace == 1, traceDir)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.summary)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runEach runs every workload in a process of its own, so that peak
// memory does not carry over from one workload to the next.
func runEach(stdout, stderr io.Writer, flags ...string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rc := 0
	for _, name := range workloadNames {
		cmd := osexec.Command(exe, append([]string{"-workload", name}, flags...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
			rc = 1
		}
	}
	return rc
}

// measure runs one workload. Untraced, it reports the end-to-end metrics.
// Traced, it runs the workload twice, the second time under a CPU profile
// with per-layer spans, and reports the per-layer metrics; the two wall
// times give the tracing overhead. Spans and the profile go to dir.
func measure(w work, name string, seed int64, secs int, traced bool, dir string) (record, error) {
	calib := calibrate()
	rec := record{Workload: name, Seconds: secs, Trace: traced, Env: hostEnvironment(seed, calib)}
	base, err := w(false, newTracer())
	if err != nil {
		return rec, err
	}
	t := base.tally
	rec.Raw = map[string]float64{"setup_s": base.rawSetup, "wall_s": base.rawWall}
	decls := endToEnd
	values := map[string]float64{"setup_s": base.setup, "wall_s": base.wall, "peak_rss_mb": peakRSSMB()}
	if traced {
		tr := newTracer()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return rec, err
		}
		oc, err := w(true, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return rec, err
		}
		stacks, err := parseProfile(prof.Bytes())
		if err != nil {
			return rec, fmt.Errorf("profile: %w", err)
		}
		decls, values = perLayer(), oc.layer
		for k, v := range profileShares(stacks) {
			values[k] = v
		}
		values["host.calib_ms"] = calib
		values["trace.overhead_frac"] = oc.wall/base.wall - 1
		t.attempted += oc.attempted
		t.failed += oc.failed
		t.unchecked += oc.unchecked
		if err := writeTrace(dir, fmt.Sprintf("%s-seed%d", name, seed), tr, prof.Bytes()); err != nil {
			return rec, err
		}
	}
	if rec.Metrics, err = emit(decls, values); err != nil {
		return rec, err
	}
	rec.Attempted, rec.Failed = t.attempted, t.failed
	rec.Correct = t.attempted > 0 && t.failed == 0 && t.unchecked == 0
	rec.Oracle = "checked"
	if t.unchecked > 0 {
		rec.Oracle = fmt.Sprintf("skipped for %d of %d outputs: no expected digest", t.unchecked, t.attempted)
	}
	return rec, nil
}

// emit pairs every declared metric with its value. A layer the workload
// does not exercise reads 0; a value that is not declared is a bug.
func emit(decls []decl, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(decls))
	for _, d := range decls {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	for k := range values {
		if _, ok := out[k]; !ok {
			return nil, fmt.Errorf("metric %q is not declared", k)
		}
	}
	return out, nil
}

func writeTrace(dir, base string, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	spans, err := json.Marshal(tr.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".spans.json"), spans, 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".cpu.pprof"), prof, 0o644)
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
