// Graph analytics scenario: GraphChi-style workloads (connected
// components, PageRank over an R-MAT graph) keep a long-lived,
// reference-dense object graph alive, so MajorGC marking (Scan&Push) and
// compaction (Bitmap Count + Copy) dominate — the opposite demographic of
// the Spark ML example. This example also demonstrates the Figure 15
// scalability study: Charon keeps scaling with GC threads where the DDR4
// host saturates, and the distributed bitmap-cache/TLB design relieves
// the central cube at high thread counts.
package main

import (
	"fmt"
	"log"

	"charonsim"
)

func main() {
	for _, name := range []string{"CC", "PR"} {
		info, err := charonsim.DescribeWorkload(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: %s on a synthetic R-MAT graph ==\n", name, info.Long)

		rec, err := charonsim.Record(name, 1.5)
		if err != nil {
			log.Fatal(err)
		}
		host, err := rec.SimulateGC(charonsim.PlatformDDR4, 8)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("host: %d minor + %d major GCs, pause %v\n",
			host.MinorGCs, host.MajorGCs, host.TotalPause)
		fmt.Printf("  Scan&Push %.3f ms, BitmapCount %.3f ms, Copy %.3f ms\n",
			host.PrimSeconds["Scan&Push"]*1e3,
			host.PrimSeconds["BitmapCount"]*1e3,
			host.PrimSeconds["Copy"]*1e3)

		fmt.Println("GC throughput scaling (normalized to 1-thread DDR4):")
		fmt.Printf("  %-22s", "threads:")
		threadCounts := []int{1, 2, 4, 8, 16}
		for _, th := range threadCounts {
			fmt.Printf("%8d", th)
		}
		fmt.Println()

		base, err := rec.SimulateGC(charonsim.PlatformDDR4, 1)
		if err != nil {
			log.Fatal(err)
		}
		for _, p := range []charonsim.Platform{
			charonsim.PlatformDDR4, charonsim.PlatformCharon, charonsim.PlatformCharonDistributed,
		} {
			fmt.Printf("  %-22s", p)
			for _, th := range threadCounts {
				st, err := rec.SimulateGC(p, th)
				if err != nil {
					log.Fatal(err)
				}
				fmt.Printf("%8.2f", float64(base.TotalPause)/float64(st.TotalPause))
			}
			fmt.Println()
		}
		fmt.Println()
	}
}
