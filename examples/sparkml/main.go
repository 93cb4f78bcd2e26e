// Spark ML scenario: the paper's machine-learning workloads (Bayesian
// classification, k-means, logistic regression) allocate few large,
// short-lived objects — RDD partitions of feature vectors — so their GC
// time is dominated by the Copy and Search primitives. This example runs
// all three, shows the per-primitive breakdown on the host, and the
// per-primitive speedups Charon achieves (Figure 4(a) + the Spark columns
// of Figures 12/14).
package main

import (
	"fmt"
	"log"
	"sort"

	"charonsim"
)

func main() {
	for _, name := range []string{"BS", "KM", "LR"} {
		info, err := charonsim.DescribeWorkload(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %s (paper heap %s, scaled to %d MB) ==\n",
			name, info.Long, info.PaperHeap, info.MinHeapBytes>>20)

		rec, err := charonsim.Record(name, 1.5)
		if err != nil {
			log.Fatal(err)
		}
		host, err := rec.SimulateGC(charonsim.PlatformDDR4, 8)
		if err != nil {
			log.Fatal(err)
		}
		accel, err := rec.SimulateGC(charonsim.PlatformCharon, 8)
		if err != nil {
			log.Fatal(err)
		}

		// Host breakdown: Copy should dominate for the Spark demographics.
		var names []string
		var total float64
		for n, s := range host.PrimSeconds {
			names = append(names, n)
			total += s
		}
		sort.Slice(names, func(i, j int) bool {
			return host.PrimSeconds[names[i]] > host.PrimSeconds[names[j]]
		})
		fmt.Println("host GC time by primitive:")
		for _, n := range names {
			hs := host.PrimSeconds[n]
			if hs == 0 {
				continue
			}
			line := fmt.Sprintf("  %-14s %5.1f%%", n, hs/total*100)
			if as := accel.PrimSeconds[n]; as > 0 {
				line += fmt.Sprintf("   charon speedup %5.2fx", hs/as)
			}
			fmt.Println(line)
		}
		fmt.Printf("overall: %v -> %v (%.2fx)\n\n",
			host.TotalPause, accel.TotalPause,
			float64(host.TotalPause)/float64(accel.TotalPause))
	}
}
