package client

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"charonsim/internal/cli"
	"charonsim/internal/server"
)

// Main executes the charonctl command with the given arguments
// (excluding the program name) and returns the process exit code:
//
//	0  success
//	1  runtime failure (network, server error)
//	2  usage error (unknown command, flag parse failure, bad config)
//	3  the job itself reached a failed or canceled terminal state —
//	   the network edge worked; the simulation did not
//
// charonctl is the network-edge counterpart of the charonsim CLI: it
// talks to a charond instance through the resilient client (retries,
// hedged polling, deadline propagation) and prints the server-rendered
// report verbatim, so bytes fetched over a faulty network are identical
// to a local charonsim run.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charonctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		serverURL = fs.String("server", "http://127.0.0.1:8080", "charond base URL")
		timeout   = fs.Duration("timeout", 0, "overall deadline for the command; propagated to the server as "+server.DeadlineHeader+" so it bounds job execution too (0 = none)")
		retries   = fs.Int("retries", 4, "retry budget per request beyond the first attempt (0 disables)")
		backoff   = fs.Duration("backoff", 100*time.Millisecond, "initial retry backoff (doubles per attempt, plus seeded jitter; server Retry-After hints override it)")
		hedge     = fs.Duration("hedge", 0, "hedged-GET delay: issue a racing duplicate of an idempotent GET that has not answered after this long (0 disables)")
		seed      = fs.Int64("seed", 0, "seed for the deterministic backoff jitter stream")
		poll      = fs.Duration("poll", 250*time.Millisecond, "status poll interval while waiting (server Retry-After hints override it)")
		raMax     = fs.Duration("retry-after-max", 30*time.Second, "cap on honored server Retry-After hints, either RFC form (0 = no cap)")
		metricsTo = fs.String("client-metrics", "", "after the command, write the client-side counter snapshot (retries, hedges) as JSON to this path (\"-\" = stderr)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, `usage: charonctl [flags] <command> [command flags]

Commands:
  submit   submit a job (flags mirror the job spec); -wait blocks for the report
  sweep    submit a parameter grid as one batch; -wait blocks for the combined report
  wait     wait for a job id to reach a terminal state
  result   fetch a finished job's rendered report (CLI byte-identical)
  cancel   cancel a job
  metrics  fetch the server's /v1/metrics document

Flags:
`)
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if fs.NArg() == 0 {
		fs.Usage()
		return 2
	}
	cmd, rest := fs.Arg(0), fs.Args()[1:]

	retryBudget := *retries
	if retryBudget == 0 {
		retryBudget = -1
	}
	retryAfterMax := *raMax
	if retryAfterMax == 0 {
		retryAfterMax = -1 // Config: 0 means default, negative disables
	}
	c, err := New(Config{
		BaseURL:       *serverURL,
		RetryBudget:   retryBudget,
		RetryBackoff:  *backoff,
		HedgeDelay:    *hedge,
		PollInterval:  *poll,
		RetryAfterMax: retryAfterMax,
		Seed:          *seed,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	code := runCommand(ctx, c, cmd, rest, stdout, stderr)
	if *metricsTo != "" {
		if err := writeClientMetrics(c, *metricsTo, stderr); err != nil {
			fmt.Fprintln(stderr, "charonctl: writing client metrics:", err)
			if code == 0 {
				code = 1
			}
		}
	}
	return code
}

func runCommand(ctx context.Context, c *Client, cmd string, args []string, stdout, stderr io.Writer) int {
	switch cmd {
	case "submit":
		return cmdSubmit(ctx, c, args, stdout, stderr)
	case "sweep":
		return cmdSweep(ctx, c, args, stdout, stderr)
	case "wait":
		return cmdWait(ctx, c, args, stdout, stderr)
	case "result":
		return cmdResult(ctx, c, args, stdout, stderr)
	case "cancel":
		return cmdCancel(ctx, c, args, stdout, stderr)
	case "metrics":
		return cmdMetrics(ctx, c, args, stdout, stderr)
	default:
		fmt.Fprintf(stderr, "charonctl: unknown command %q (have submit, sweep, wait, result, cancel, metrics)\n", cmd)
		return 2
	}
}

func cmdSubmit(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charonctl submit", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiment  = fs.String("experiment", "", "experiment id, or \"all\" (required)")
		threads     = fs.Int("threads", 0, "mutator thread count (0 = server default)")
		heapFactor  = fs.Float64("heap-factor", 0, "heap size factor (0 = server default)")
		workloads   = fs.String("workloads", "", "comma-separated workload subset (empty = all)")
		parallelism = fs.Int("parallelism", 0, "per-job simulation parallelism (0 = server default)")
		faultRate   = fs.Float64("fault-rate", 0, "simulated-hardware fault rate")
		faultSeed   = fs.Int64("fault-seed", 0, "simulated-hardware fault seed")
		runTimeout  = fs.Duration("run-timeout", 0, "per-unit run timeout (0 = server default)")
		wait        = fs.Bool("wait", false, "block until the job finishes and print its report to stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *experiment == "" {
		fmt.Fprintln(stderr, "charonctl submit: -experiment is required")
		return 2
	}
	spec := server.JobSpec{
		Experiment: *experiment,
		Threads:    *threads, HeapFactor: *heapFactor,
		Parallelism: *parallelism,
		FaultRate:   *faultRate, FaultSeed: *faultSeed,
	}
	if *workloads != "" {
		spec.Workloads = strings.Split(*workloads, ",")
	}
	if *runTimeout > 0 {
		spec.RunTimeout = runTimeout.String()
	}

	j, err := c.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl submit:", err)
		return 1
	}
	if !*wait {
		printJob(stdout, j)
		return 0
	}
	text, err := c.WaitResult(ctx, j.ID)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl submit:", err)
		return jobExitCode(err)
	}
	io.WriteString(stdout, text)
	return 0
}

func cmdSweep(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charonctl sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		experiments = fs.String("experiments", "", "comma-separated experiment ids, or \"all\" (required); one grid axis")
		workloads   = fs.String("workloads", "", "comma-separated workload codes fanned one child per code (empty = each child runs the experiment's default workload set)")
		heapFactors = fs.String("heap-factors", "", "comma-separated heap factors fanned one child per value (empty = server default)")
		threadList  = fs.String("threads", "", "comma-separated GC thread counts fanned one child per value (empty = server default)")
		parallelism = fs.Int("parallelism", 0, "per-job simulation parallelism, shared by every child (0 = server default)")
		faultRate   = fs.Float64("fault-rate", 0, "simulated-hardware fault rate, shared by every child")
		faultSeed   = fs.Int64("fault-seed", 0, "simulated-hardware fault seed, shared by every child")
		runTimeout  = fs.Duration("run-timeout", 0, "per-unit run timeout, shared by every child (0 = server default)")
		wait        = fs.Bool("wait", false, "block until every child finishes and print the combined report to stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *experiments == "" {
		fmt.Fprintln(stderr, "charonctl sweep: -experiments is required")
		return 2
	}
	spec := server.SweepSpec{
		Experiments: cli.CleanWorkloads(strings.Split(*experiments, ",")),
		Parallelism: *parallelism,
		FaultRate:   *faultRate, FaultSeed: *faultSeed,
	}
	if *workloads != "" {
		spec.Workloads = strings.Split(*workloads, ",")
	}
	if *heapFactors != "" {
		factors, err := cli.SplitFloats(*heapFactors)
		if err != nil {
			fmt.Fprintln(stderr, "charonctl sweep: -heap-factors:", err)
			return 2
		}
		spec.HeapFactors = factors
	}
	if *threadList != "" {
		threads, err := cli.SplitInts(*threadList)
		if err != nil {
			fmt.Fprintln(stderr, "charonctl sweep: -threads:", err)
			return 2
		}
		spec.Threads = threads
	}
	if *runTimeout > 0 {
		spec.RunTimeout = runTimeout.String()
	}

	sw, err := c.SubmitSweep(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl sweep:", err)
		return 1
	}
	if !*wait {
		printSweep(stdout, sw)
		return 0
	}
	text, err := c.SweepWaitResult(ctx, sw.ID)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl sweep:", err)
		return jobExitCode(err)
	}
	io.WriteString(stdout, text)
	return 0
}

func cmdWait(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	id, code := oneJobID("wait", args, stderr)
	if code >= 0 {
		return code
	}
	j, err := c.Wait(ctx, id)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl wait:", err)
		return 1
	}
	printJob(stdout, j)
	if j.State != server.StateDone {
		return 3
	}
	return 0
}

func cmdResult(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	id, code := oneJobID("result", args, stderr)
	if code >= 0 {
		return code
	}
	text, err := c.Result(ctx, id)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl result:", err)
		return jobExitCode(err)
	}
	io.WriteString(stdout, text)
	return 0
}

func cmdCancel(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	id, code := oneJobID("cancel", args, stderr)
	if code >= 0 {
		return code
	}
	j, err := c.Cancel(ctx, id)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl cancel:", err)
		return 1
	}
	printJob(stdout, j)
	return 0
}

func cmdMetrics(ctx context.Context, c *Client, args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		fmt.Fprintln(stderr, "charonctl metrics: takes no arguments")
		return 2
	}
	body, err := c.ServerMetrics(ctx)
	if err != nil {
		fmt.Fprintln(stderr, "charonctl metrics:", err)
		return 1
	}
	stdout.Write(body)
	return 0
}

// oneJobID parses the single positional job-id argument; a non-negative
// code means "return this immediately".
func oneJobID(cmd string, args []string, stderr io.Writer) (string, int) {
	if len(args) != 1 || strings.HasPrefix(args[0], "-") {
		fmt.Fprintf(stderr, "usage: charonctl %s <job-id>\n", cmd)
		return "", 2
	}
	return args[0], -1
}

// jobExitCode distinguishes "the job failed" (3) from "the network
// failed" (1): a complete server answer reporting a failed/canceled/
// unfinished job is the former, a transport-level error the latter.
func jobExitCode(err error) int {
	var apiErr *APIError
	if errors.As(err, &apiErr) || errors.Is(err, ErrJobFailed) || errors.Is(err, ErrJobCanceled) {
		return 3
	}
	return 1
}

func printJob(w io.Writer, j Job) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(j)
}

func printSweep(w io.Writer, sw Sweep) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(sw)
}

func writeClientMetrics(c *Client, path string, stderr io.Writer) error {
	if path == "-" {
		return c.MetricsSnapshot(stderr)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.MetricsSnapshot(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
