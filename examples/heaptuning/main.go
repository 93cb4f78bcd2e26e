// Heap tuning scenario: the paper's Figure 2 motivation — GC overhead
// explodes as the heap approaches the minimum the application needs, and
// is still noticeable even at 2x overprovisioning. This example sweeps
// the heap factor for one workload across platforms, showing both the
// overhead curve and how much of it Charon removes at each sizing — the
// practical question a capacity planner would ask of this system.
package main

import (
	"flag"
	"fmt"
	"log"

	"charonsim"
)

func main() {
	name := flag.String("workload", "KM", "workload to sweep")
	flag.Parse()

	info, err := charonsim.DescribeWorkload(*name)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("heap sizing study: %s (%s), minimum heap %d MB\n\n",
		info.Name, info.Long, info.MinHeapBytes>>20)

	factors := []float64{1.0, 1.25, 1.5, 2.0}
	fmt.Printf("%-8s %10s %14s %14s %12s\n",
		"heap", "GCs", "host overhead", "charon overhead", "speedup")
	for _, f := range factors {
		rec, err := charonsim.Record(*name, f)
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
		fmt.Printf("%-8s %10d %13.1f%% %13.1f%% %11.2fx\n",
			fmt.Sprintf("%.2fx", f),
			host.MinorGCs+host.MajorGCs,
			host.Overhead()*100,
			accel.Overhead()*100,
			float64(host.TotalPause)/float64(accel.TotalPause))
	}
	fmt.Println("\nreading: host overhead rises steeply toward the minimum heap")
	fmt.Println("(the paper reports up to 365%); Charon flattens the curve, which")
	fmt.Println("is the machine-provisioning argument of the paper's introduction.")
}
