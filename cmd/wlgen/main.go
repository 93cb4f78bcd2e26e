// Command wlgen inspects the synthetic workload generators: it runs one
// workload functionally (no timing) and prints its GC log and object
// demographics — the histograms that make BS/KM/LR "few large objects,
// few references" and CC/PR "many small objects, many references" per the
// paper's Section 3.2 analysis.
//
// Usage:
//
//	wlgen -workload PR -factor 1.5
//	wlgen -workload ALS -events
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"charonsim"
	"charonsim/internal/experiments"
	"charonsim/internal/gc"
	"charonsim/internal/workload"
)

// Main executes the wlgen command with the given arguments (excluding
// the program name) and returns the process exit code: 0 on success
// (including -h/-help, which prints usage and exits cleanly), 1 on a
// workload failure, 2 on a flag parse error or a workload and factor the
// charonsim CLI would refuse (charonsim.Config.Validate) — the same
// contract as the charonsim CLI and charond.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wlgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "BS", "workload: BS, KM, LR, CC, PR, ALS")
		factor  = fs.Float64("factor", experiments.DefaultFactor, "heap overprovisioning factor")
		events  = fs.Bool("events", false, "print the per-collection log")
		jsonOut = fs.Bool("json", false, "emit the GC log as newline-delimited JSON and exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := (charonsim.Config{Workloads: []string{*name}, HeapFactor: *factor}).Validate(); err != nil {
		fmt.Fprintf(stderr, "wlgen: %v\n", err)
		return 2
	}
	if *factor == 0 {
		*factor = experiments.DefaultFactor // 0 selects the default, as in charonsim.Config
	}

	w, err := workload.New(*name)
	if err != nil {
		fmt.Fprintf(stderr, "wlgen: %v\n", err)
		return 1
	}
	col, err := workload.RunRecorded(w, *factor)
	if err != nil {
		fmt.Fprintf(stderr, "wlgen: %v\n", err)
		return 1
	}
	if *jsonOut {
		if err := gc.WriteLog(stdout, col.Log); err != nil {
			fmt.Fprintf(stderr, "wlgen: %v\n", err)
			return 1
		}
		return 0
	}
	sp := w.Spec()
	fmt.Fprintf(stdout, "workload %s (%s) on %d MB heap (%.2fx min)\n",
		sp.Name, sp.Long, workload.HeapFor(sp, *factor)>>20, *factor)
	fmt.Fprintf(stdout, "allocated: %d objects, %.1f MB\n",
		col.H.Stats.AllocatedObjects, float64(col.H.Stats.AllocatedBytes)/1e6)
	fmt.Fprintf(stdout, "promoted:  %d objects, %.1f MB\n",
		col.H.Stats.PromotedObjects, float64(col.H.Stats.PromotedBytes)/1e6)
	fmt.Fprintf(stdout, "GCs: %d minor, %d major\n", col.Stats.Minors, col.Stats.Majors)

	// Demographics over all recorded copies and scans.
	var copyCount, copyBytes, maxCopy uint64
	var scanCount, refCount uint64
	sizeBuckets := map[string]uint64{}
	bucket := func(n uint32) string {
		switch {
		case n <= 64:
			return "<=64B"
		case n <= 512:
			return "<=512B"
		case n <= 4096:
			return "<=4KB"
		case n <= 65536:
			return "<=64KB"
		default:
			return ">64KB"
		}
	}
	for _, ev := range col.Log {
		for _, inv := range ev.Invocations {
			switch inv.Prim() {
			case gc.PrimCopy:
				copyCount++
				copyBytes += uint64(inv.N)
				if uint64(inv.N) > maxCopy {
					maxCopy = uint64(inv.N)
				}
				sizeBuckets[bucket(inv.N)]++
			case gc.PrimScanPush:
				scanCount++
				refCount += uint64(inv.N)
			}
		}
	}
	fmt.Fprintf(stdout, "\nobject demographics (over GC work):\n")
	if copyCount > 0 {
		fmt.Fprintf(stdout, "  copies: %d, avg %.0f B, max %.1f KB\n",
			copyCount, float64(copyBytes)/float64(copyCount), float64(maxCopy)/1024)
	}
	for _, b := range []string{"<=64B", "<=512B", "<=4KB", "<=64KB", ">64KB"} {
		if sizeBuckets[b] > 0 {
			fmt.Fprintf(stdout, "    %-7s %6d copies\n", b, sizeBuckets[b])
		}
	}
	if scanCount > 0 {
		fmt.Fprintf(stdout, "  scans: %d, avg %.2f references per object scan\n",
			scanCount, float64(refCount)/float64(scanCount))
	}
	fmt.Fprintf(stdout, "  refs per copied KB: %.2f\n", float64(refCount)/(float64(copyBytes)/1024+1))

	if *events {
		fmt.Fprintln(stdout, "\ngc log:")
		for _, ev := range col.Log {
			counts := ev.CountByPrim()
			fmt.Fprintf(stdout, "  [%2d] %-5s %-26s live %7.1f KB, reclaimed %8.1f KB, promoted %7.1f KB  (copy=%d search=%d scan=%d bc=%d)\n",
				ev.Seq, ev.Kind, ev.Reason,
				float64(ev.LiveBytes)/1024, float64(ev.ReclaimedBytes)/1024, float64(ev.PromotedBytes)/1024,
				counts[gc.PrimCopy], counts[gc.PrimSearch], counts[gc.PrimScanPush], counts[gc.PrimBitmapCount])
		}
	}
	return 0
}

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}
