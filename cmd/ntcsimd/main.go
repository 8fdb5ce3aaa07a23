// Command ntcsimd serves the ntcsim experiments as an HTTP job service:
// POST an experiment, poll or stream its progress, download the report
// once it settles. Results are cached content-addressed on (experiment,
// params, seed, version), so resubmitting a finished configuration is
// free. See DESIGN.md §15 for the endpoint table and lifecycle.
//
// Usage:
//
//	ntcsimd -listen :8080 &
//	curl -s localhost:8080/v1/jobs -d '{"experiment":"fig2"}'
//	curl -s localhost:8080/v1/jobs/j1/events   # SSE progress
//	curl -s localhost:8080/v1/jobs/j1/result   # report text
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ntcsim/internal/service"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ntcsimd:", err)
		os.Exit(1)
	}
}

func run() error {
	fs := flag.NewFlagSet("ntcsimd", flag.ExitOnError)
	listen := fs.String("listen", ":8080", "address to serve HTTP on")
	workers := fs.Int("workers", 2, "jobs run concurrently")
	jobs := fs.Int("jobs", 0, "per-job sweep worker budget (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 64, "submitted jobs that may wait for a worker")
	grace := fs.Duration("grace", 5*time.Second, "how long a drain waits for running jobs before canceling")
	fs.Parse(os.Args[1:])
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	// SIGTERM/SIGINT starts the graceful drain; the job engine's own
	// lifetime is independent of this context so running jobs get the
	// grace window instead of instant cancellation.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	svc := service.New(service.Config{
		Workers:    *workers,
		Jobs:       *jobs,
		QueueDepth: *queue,
		Grace:      *grace,
	})
	// Bind before serving so "-listen 127.0.0.1:0" reports the kernel-
	// assigned port — the daemon-smoke script depends on this line.
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svc.Handler()}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "ntcsimd: listening on %s\n", ln.Addr())
		errc <- srv.Serve(ln)
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Drain: refuse new jobs, cancel the queue, grace-wait the running
	// jobs, then stop the listener. The overall deadline leaves room
	// for the grace window plus the HTTP shutdown.
	fmt.Fprintln(os.Stderr, "ntcsimd: draining")
	dctx, cancel := context.WithTimeout(context.Background(), *grace+10*time.Second)
	defer cancel()
	if err := svc.Drain(dctx); err != nil {
		srv.Close()
		return fmt.Errorf("drain: %w", err)
	}
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Fprintln(os.Stderr, "ntcsimd: drained")
	return nil
}
