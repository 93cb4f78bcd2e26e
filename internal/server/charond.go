package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// edgeServer wraps the handler in an http.Server with conservative edge
// timeouts so a slow, stalled, or non-reading client can't pin a
// connection (and its goroutine) forever. Handlers stream nothing
// long-lived — job execution is asynchronous and result bodies are
// small — so short bounds are safe on every side: read bounds cap
// slow-request abuse, and writeTimeout tears down a connection whose
// peer stops draining the response (a slowloris in reverse).
func edgeServer(h http.Handler, writeTimeout time.Duration) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       2 * time.Minute,
	}
}

// Main executes the charond command with the given arguments (excluding
// the program name) and returns the process exit code. It mirrors the
// charonsim CLI's exit-code contract:
//
//	0  clean shutdown (SIGINT/SIGTERM received, every job drained)
//	1  runtime failure (listen/serve error)
//	2  configuration error (flag parse failure)
//	3  drain deadline expired — in-flight jobs were aborted; their
//	   completed replay units are checkpointed, so a restart resumes them
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("charond", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr         = fs.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port, printed on stdout)")
		workers      = fs.Int("workers", defaultWorkers, "concurrent job executors (each job fans out further per its own parallelism)")
		queueDepth   = fs.Int("queue", defaultQueueDepth, "admission queue depth; a full queue rejects submissions with 429 + Retry-After")
		cacheDir     = fs.String("cache-dir", "", "job journal + per-unit checkpoint root; identical resubmissions (including across restarts) are served from it without simulating")
		jobTimeout   = fs.Duration("job-timeout", 0, "default per-unit run timeout applied to jobs that do not set run_timeout (0 = unbounded)")
		drainTimeout = fs.Duration("drain-timeout", 30*time.Second, "how long SIGTERM waits for in-flight jobs before aborting them (completed units stay checkpointed)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	logger := slog.New(slog.NewJSONHandler(stderr, nil))
	srv, err := New(Config{
		Workers: *workers, QueueDepth: *queueDepth,
		CacheDir: *cacheDir, JobTimeout: *jobTimeout, Log: logger,
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, fmt.Errorf("charond: %w", err))
		srv.Close()
		return 1
	}
	// The one human/script-facing stdout line: where the API landed
	// (meaningful with -addr :0). Everything else is structured logs.
	fmt.Fprintf(stdout, "charond listening on http://%s\n", ln.Addr())
	logger.Info("listening", "addr", ln.Addr().String(), "workers", *workers,
		"queue", *queueDepth, "cache_dir", *cacheDir)

	hs := edgeServer(srv.Handler(), 30*time.Second)
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// First SIGINT/SIGTERM starts the drain; stop() below re-arms default
	// delivery so a second signal kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-serveErr:
		logger.Error("serve failed", "err", err)
		srv.Close()
		return 1
	case <-ctx.Done():
		stop()
	}

	logger.Info("draining", "timeout", drainTimeout.String())
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := srv.Drain(dctx)

	// Jobs are settled; now close the HTTP side so late pollers get
	// connection errors rather than hangs.
	sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer scancel()
	_ = hs.Shutdown(sctx)

	if drainErr != nil {
		logger.Warn("drain incomplete", "err", drainErr)
		return 3
	}
	logger.Info("drained cleanly")
	return 0
}
