// Command gcstats runs one workload configuration and prints a
// -verbose:gc style log: per-collection pause times on the chosen
// platform, the per-primitive breakdown, bandwidth, locality and energy.
//
// Usage:
//
//	gcstats -workload ALS -platform charon -factor 1.25 -threads 8
//	gcstats -workload CC -platform ddr4 -compare
//	gcstats -workload CC -percollection
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"

	"charonsim"
	"charonsim/internal/experiments"
)

// Main executes the gcstats command with the given arguments (excluding
// the program name) and returns the process exit code: 0 on success
// (including -h/-help, which prints usage and exits cleanly), 1 on a
// simulation failure, 2 on a flag parse error or a configuration the
// charonsim CLI would refuse (charonsim.Config.Validate) or an unknown
// platform — the same contract as the charonsim CLI and charond.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gcstats", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "BS", "workload: BS, KM, LR, CC, PR, ALS")
		platform = fs.String("platform", "charon", "platform: ddr4, hmc, charon, charon-distributed, charon-cpuside, ideal")
		factor   = fs.Float64("factor", experiments.DefaultFactor, "heap overprovisioning factor")
		threads  = fs.Int("threads", experiments.DefaultThreads, "GC threads")
		compare  = fs.Bool("compare", false, "also run every other platform and print speedups")
		perGC    = fs.Bool("percollection", false, "print one line per collection")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The checks the charonsim CLI applies to the same settings, plus the
	// platform name, before anything is simulated.
	err := charonsim.Config{Workloads: []string{*name}, HeapFactor: *factor, Threads: *threads}.Validate()
	if p := charonsim.Platform(*platform); err == nil && !slices.Contains(charonsim.Platforms(), p) {
		err = fmt.Errorf("unknown platform %q (have %v)", p, charonsim.Platforms())
	}
	if err != nil {
		fmt.Fprintf(stderr, "gcstats: %v\n", err)
		return 2
	}

	rec, err := charonsim.Record(*name, *factor)
	if err != nil {
		fmt.Fprintf(stderr, "gcstats: %v\n", err)
		return 1
	}
	st, err := rec.SimulateGC(charonsim.Platform(*platform), *threads)
	if err != nil {
		fmt.Fprintf(stderr, "gcstats: %v\n", err)
		return 1
	}

	info, _ := charonsim.DescribeWorkload(*name)
	fmt.Fprintf(stdout, "workload    %s (%s, %s; dataset: %s)\n", info.Name, info.Long, info.Framework, info.Dataset)
	fmt.Fprintf(stdout, "heap        %.2fx minimum (%d MB)\n", st.HeapFactor, uint64(float64(info.MinHeapBytes)*st.HeapFactor)>>20)
	fmt.Fprintf(stdout, "platform    %s, %d GC threads\n", st.Platform, st.Threads)
	fmt.Fprintf(stdout, "collections %d minor + %d major\n", st.MinorGCs, st.MajorGCs)
	fmt.Fprintf(stdout, "gc pause    %v total (mutator %v, overhead %.1f%%)\n",
		st.TotalPause, st.MutatorTime, st.Overhead()*100)
	fmt.Fprintf(stdout, "reclaimed   %.1f MB (live at collections: %.1f MB)\n",
		float64(st.ReclaimedBytes)/1e6, float64(st.LiveBytes)/1e6)
	fmt.Fprintf(stdout, "bandwidth   %.1f GB/s during GC", st.Bandwidth)
	if st.LocalRatio > 0 {
		fmt.Fprintf(stdout, " (%.0f%% serviced by the local cube)", st.LocalRatio*100)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "energy      %.4f J\n", st.EnergyJoules)

	fmt.Fprintln(stdout, "per-primitive time:")
	type kv struct {
		name string
		sec  float64
	}
	var prims []kv
	var total float64
	for n, s := range st.PrimSeconds {
		prims = append(prims, kv{n, s})
		total += s
	}
	sort.Slice(prims, func(i, j int) bool { return prims[i].sec > prims[j].sec })
	for _, p := range prims {
		if p.sec == 0 {
			continue
		}
		fmt.Fprintf(stdout, "  %-14s %8.3f ms  (%4.1f%%)\n", p.name, p.sec*1e3, p.sec/total*100)
	}

	if *perGC {
		fmt.Fprintln(stdout, "\nper-collection log:")
		for _, ev := range st.Events {
			fmt.Fprintf(stdout, "  [%2d] %-9s %-32s pause %10v  live %8.1f KB  reclaimed %8.1f KB  %6.1f GB/s\n",
				ev.Seq, ev.Kind, ev.Reason, ev.Pause,
				float64(ev.LiveBytes)/1024, float64(ev.ReclaimedBytes)/1024, ev.BandwidthGBs)
		}
	}

	if *compare {
		// One replay of the one recording per platform; the headline
		// platform's is a memo hit. ddr4 leads Platforms(), so the base is
		// known before any other row prints.
		fmt.Fprintln(stdout, "\nspeedup over ddr4:")
		var base *charonsim.GCStats
		for _, p := range charonsim.Platforms() {
			o, err := rec.SimulateGC(p, *threads)
			if err != nil {
				if base == nil {
					fmt.Fprintf(stderr, "gcstats: %v\n", err)
					return 1
				}
				fmt.Fprintf(stderr, "gcstats: %s: %v\n", p, err)
				continue
			}
			if p == charonsim.PlatformDDR4 {
				base = o
			}
			fmt.Fprintf(stdout, "  %-20s %6.2fx  (pause %v)\n", p,
				float64(base.TotalPause)/float64(o.TotalPause), o.TotalPause)
		}
	}
	return 0
}

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}
