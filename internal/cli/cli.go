// Package cli implements the charonsim command: flag parsing, signal
// handling, and the exit-code contract. It lives behind the thin
// cmd/charonsim/main.go shim so the whole command — including SIGINT
// behaviour and the partial-sweep report — is testable in-process and as
// a subprocess.
//
// Exit codes:
//
//	0  success
//	1  run failure (a simulation unit errored or wedged)
//	2  configuration error (flag or Config validation)
//	3  interrupted — SIGINT/SIGTERM cancelled the sweep; completed
//	   reports were printed and checkpoints (if enabled) are intact
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"charonsim"
	"charonsim/internal/atomicio"
	"charonsim/internal/sim"
)

// Run executes the command with the given arguments (excluding the
// program name) and returns the process exit code.
func Run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charonsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var sf SimFlags
	sf.Register(fs)
	var (
		exp      = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		list     = fs.Bool("list", false, "list experiments and workloads, then exit")
		dumpPath = fs.String("watchdog-dump", "", "on a watchdog abort, write the diagnostic dump to this file as well as stderr")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			// -h/-help asked for the usage text (already printed by Parse);
			// that is a success, not a configuration error.
			return 0
		}
		return 2
	}

	if *list {
		fmt.Fprintln(stdout, "experiments:")
		for _, id := range charonsim.Experiments() {
			fmt.Fprintf(stdout, "  %s\n", id)
		}
		fmt.Fprintln(stdout, "workloads:")
		for _, w := range charonsim.Workloads() {
			info, _ := charonsim.DescribeWorkload(w)
			fmt.Fprintf(stdout, "  %-4s %-28s %-9s paper heap %s\n", w, info.Long, info.Framework, info.PaperHeap)
		}
		return 0
	}

	cfg, err := sf.Config()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	// SIGINT/SIGTERM cancel the context; the harness stops dispatching
	// simulation units, flushes what completed, and we print the partial
	// report below. A second signal kills the process the default way
	// (signal.NotifyContext unregisters on the first).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	reports, err := RunReports(ctx, *exp, cfg)
	RenderReports(stdout, reports)
	if err != nil {
		fmt.Fprintln(stderr, err)
		var np *sim.NoProgressError
		if errors.As(err, &np) && *dumpPath != "" {
			writeDump(stderr, *dumpPath, np)
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "interrupted: %d experiment(s) completed in %.1fs", len(reports), time.Since(start).Seconds())
			if cfg.CheckpointDir != "" {
				fmt.Fprintf(stderr, "; finished units are checkpointed in %s — re-run the same command to resume", cfg.CheckpointDir)
			}
			fmt.Fprintln(stderr)
			return 3
		}
		return 1
	}
	fmt.Fprintf(stdout, "(%d experiment(s) in %.1fs)\n", len(reports), time.Since(start).Seconds())
	return 0
}

// RunReports runs one experiment by id, or every experiment for "all".
// On error it still returns the reports that completed: RunAllContext's
// partial prefix, or none for a single experiment.
func RunReports(ctx context.Context, exp string, cfg charonsim.Config) ([]*charonsim.Report, error) {
	if exp == "all" {
		return charonsim.RunAllContext(ctx, cfg)
	}
	r, err := charonsim.RunContext(ctx, exp, cfg)
	if err != nil {
		return nil, err
	}
	return []*charonsim.Report{r}, nil
}

// writeDump persists a watchdog diagnostic dump (atomically, so a partial
// dump never masquerades as a full one). Failures are reported but do not
// change the exit code — the dump is an aid, not a deliverable.
func writeDump(stderr io.Writer, path string, np *sim.NoProgressError) {
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		_, werr := fmt.Fprintf(w, "charonsim watchdog abort: %s\n%s\n", np.Reason, np.Diag.String())
		return werr
	})
	if err != nil {
		fmt.Fprintf(stderr, "writing watchdog dump: %v\n", err)
		return
	}
	fmt.Fprintf(stderr, "watchdog diagnostics written to %s\n", path)
}
