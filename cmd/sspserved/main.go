// Command sspserved is the adapt+simulate service: a long-running HTTP
// server that accepts jobs (a built-in benchmark or a source program, a
// machine model, a treatment, tool options), runs the profile → adapt →
// simulate pipeline, and memoizes results by content so identical jobs cost
// one simulation. With -tune it also accepts closed-loop tuning jobs
// (JobSpec.Tune), which run the internal/tune options search.
//
// Usage:
//
//	sspserved -addr :8344 -workers 8 -queue 64
//	sspserved -tune                      # also admit tune-mode jobs
//	sspserved -cache-mb 64               # 64 MiB pipeline cache per scale
//
// Endpoints:
//
//	POST /jobs     submit a job (JSON body; SSE stream with
//	               "Accept: text/event-stream")
//	GET  /healthz  liveness (503 while draining)
//	GET  /statz    counters: requests, hit/miss, capacity, machine pool,
//	               and the pipeline cache (resident bytes, entries and
//	               evictions per stage)
//
// The server keeps one pipeline cache per scale (test and paper). Each is
// bounded by -cache-mb: past it, the least recently useful completed cells
// are evicted and recomputed on their next request. The default, 0, is
// 32 MiB for the test scale and 256 MiB for the paper scale, which hold the
// whole 48-cell matrix of either; -1 keeps every cell.
//
// Source jobs are vetted by the speculation-safety verifier before
// admission: if the submitted IR carries slice regions that cannot be proved
// bounded and state-isolated at the target machine's MaxSpecInstrs ceiling,
// the job is rejected with HTTP 422 and a JSON body holding the
// machine-readable safety report ({"error": ..., "safety": ...}); rejected
// programs are never cached, so a corrected resubmission is verified fresh.
//
// On SIGTERM or SIGINT the server drains: it stops admitting jobs, finishes
// the in-flight ones, then exits.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"ssp/internal/cliutil"
	"ssp/internal/serve"
)

// options bundles the command-line parameters of one sspserved invocation.
type options struct {
	Addr       string
	Workers    int
	Queue      int
	Timeout    time.Duration
	DrainGrace time.Duration
	EnableTune bool
	CacheMB    int64

	CPUProfile, MemProfile string
}

func main() {
	var o options
	flag.StringVar(&o.Addr, "addr", "localhost:8344", "listen address")
	flag.IntVar(&o.Workers, "workers", 0, "simulations each scale runs at once, plain and tune jobs alike (0 = GOMAXPROCS)")
	flag.IntVar(&o.Queue, "queue", 0, "jobs admitted beyond -workers before 429s (0 = 4x workers)")
	flag.DurationVar(&o.Timeout, "timeout", 120*time.Second, "default per-job deadline")
	flag.DurationVar(&o.DrainGrace, "drain-grace", 30*time.Second, "how long to wait for in-flight jobs on shutdown")
	flag.BoolVar(&o.EnableTune, "tune", false, "admit tune-mode jobs (closed-loop options search; many simulations per job)")
	flag.Int64Var(&o.CacheMB, "cache-mb", 0, "pipeline cache budget per scale in MiB (0 = 32 test, 256 paper; -1 = unbounded)")
	flag.StringVar(&o.CPUProfile, "cpuprofile", "", "write a host CPU profile here")
	flag.StringVar(&o.MemProfile, "memprofile", "", "write a host heap profile here")
	flag.Parse()
	if err := run(context.Background(), o, nil); err != nil {
		fmt.Fprintln(os.Stderr, "sspserved:", err)
		os.Exit(1)
	}
}

// run starts the server and blocks until the listener fails or a shutdown
// signal (or parent cancellation) starts the drain. If ready is non-nil, the
// bound listen address is sent on it once the server is accepting — the hook
// tests use to run against ":0".
func run(parent context.Context, o options, ready chan<- string) error {
	stopProfiles, err := cliutil.StartProfiles(o.CPUProfile, o.MemProfile)
	if err != nil {
		return err
	}
	defer stopProfiles()

	srv := serve.New(serve.Config{
		Workers:        o.Workers,
		Queue:          o.Queue,
		DefaultTimeout: o.Timeout,
		EnableTune:     o.EnableTune,
		CacheBytes:     o.CacheMB << 20,
	})
	ln, err := net.Listen("tcp", o.Addr)
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: srv}

	ctx, stop := signal.NotifyContext(parent, os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("sspserved: listening on %s", ln.Addr())
		errc <- hs.Serve(ln)
	}()
	if ready != nil {
		ready <- ln.Addr().String()
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}

	// Graceful drain: refuse new jobs, finish the in-flight tail, then
	// close the listener. A second signal (stop() restored default
	// handling) kills the process the usual way.
	stop()
	log.Printf("sspserved: draining (up to %s)", o.DrainGrace)
	grace, cancel := context.WithTimeout(context.Background(), o.DrainGrace)
	defer cancel()
	drainErr := srv.Drain(grace)
	if err := hs.Shutdown(grace); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	log.Printf("sspserved: drained cleanly")
	return nil
}
