// Quickstart: simulate one workload's garbage collection on the baseline
// host and on Charon, and print the headline comparison — the smallest
// possible use of the public API.
package main

import (
	"fmt"
	"log"

	"charonsim"
)

func main() {
	// Pick a workload from the paper's Table 3 (BS = Spark Bayesian
	// classification) at 1.5x its minimum heap with 8 GC threads.
	const workload, factor, threads = "BS", 1.5, 8

	info, err := charonsim.DescribeWorkload(workload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("workload: %s — %s (%s)\n", info.Name, info.Long, info.Framework)

	// Record the workload once, then replay its GC log on both platforms.
	rec, err := charonsim.Record(workload, factor)
	if err != nil {
		log.Fatal(err)
	}
	base, err := rec.SimulateGC(charonsim.PlatformDDR4, threads)
	if err != nil {
		log.Fatal(err)
	}
	accel, err := rec.SimulateGC(charonsim.PlatformCharon, threads)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("collections: %d minor + %d major\n", base.MinorGCs, base.MajorGCs)
	fmt.Printf("host (DDR4):   GC pause %v at %.1f GB/s\n", base.TotalPause, base.Bandwidth)
	fmt.Printf("Charon (HMC):  GC pause %v at %.1f GB/s (%.0f%% local accesses)\n",
		accel.TotalPause, accel.Bandwidth, accel.LocalRatio*100)
	fmt.Printf("speedup: %.2fx   energy: %.2fx lower\n",
		float64(base.TotalPause)/float64(accel.TotalPause),
		base.EnergyJoules/accel.EnergyJoules)
}
