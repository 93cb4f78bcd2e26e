package charonsim_test

import (
	"fmt"

	"charonsim"
)

// The smallest use of the library: compare one workload's GC on the
// baseline host and on the Charon accelerator.
func ExampleRecord() {
	rec, _ := charonsim.Record("ALS", 1.5)
	host, _ := rec.SimulateGC(charonsim.PlatformDDR4, 8)
	accel, _ := rec.SimulateGC(charonsim.PlatformCharon, 8)
	fmt.Printf("collections: %d minor + %d major\n", host.MinorGCs, host.MajorGCs)
	fmt.Printf("speedup > 5x: %v\n", float64(host.TotalPause)/float64(accel.TotalPause) > 5)
	// Output:
	// collections: 8 minor + 3 major
	// speedup > 5x: true
}

// Regenerate a paper table by id; Experiments lists the available ids.
func ExampleRun() {
	rep, err := charonsim.Run("table4", charonsim.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Println(rep.Title)
	// Output:
	// Charon area
}

// Workload metadata mirrors the paper's Table 3.
func ExampleDescribeWorkload() {
	info, _ := charonsim.DescribeWorkload("ALS")
	fmt.Printf("%s: %s on %s (paper heap %s)\n", info.Name, info.Long, info.Framework, info.PaperHeap)
	// Output:
	// ALS: Alternating Least Squares on GraphChi (paper heap 4GB)
}

// The accelerator's area model reproduces Table 4's totals.
func ExampleArea() {
	a := charonsim.Area()
	fmt.Printf("%.4f mm2 total, %.2f%% of the logic layer\n", a.TotalMM2, a.LogicLayerShare*100)
	// Output:
	// 1.9470 mm2 total, 0.49% of the logic layer
}
