// Command charonsim regenerates the paper's evaluation: it runs any of
// the table/figure experiments and prints the same rows/series the paper
// reports.
//
// Usage:
//
//	charonsim -exp fig12                # one experiment, all six workloads
//	charonsim -exp fig14 -workloads BS,ALS
//	charonsim -exp all -threads 8 -factor 1.5
//	charonsim -exp all -parallel 8      # fan simulations out over 8 workers
//	charonsim -exp faults -workloads BS  # fault sweep at its fixed seed
//	charonsim -exp fig12 -checkpoint-dir .ckpt   # crash-safe, resumable
//	charonsim -list
//
// Output is byte-identical at every -parallel setting; only the wall
// clock changes. SIGINT/SIGTERM stop the sweep cleanly: completed
// reports are printed, checkpoints (if enabled) stay intact, and the
// process exits with code 3. See internal/cli for the full exit-code
// contract.
package main

import (
	"os"

	"charonsim/internal/cli"
)

func main() {
	os.Exit(cli.Run(os.Args[1:], os.Stdout, os.Stderr))
}
