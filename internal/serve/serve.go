// Package serve is the serving layer over the adapt+simulate pipeline: a
// long-running HTTP service that accepts jobs (a built-in benchmark or a
// source program, a machine model, a treatment, tool options) and resolves
// each through the experiment suite's pipeline, so identical jobs —
// concurrent or repeated — cost one simulation.
//
// The server is a thin client of internal/exp: one exp.Suite per scale is
// its only program, binary, and run cache, with the suite's machine
// configuration, machine pool, and validation discipline, and the
// closed-loop tuner of tune-mode jobs wraps the same suites. A served result
// is therefore the corresponding matrix cell itself — byte-identical to the
// golden-stats baseline — and a job the tuner or the matrix already ran is a
// cache hit. What the server adds is HTTP: admission and 429s, worker slots,
// SSE progress, safety vetting of source IR, drain, and the tune-result memo.
//
// Capacity is explicit: Workers simulations run at once, Queue more may wait
// admitted, and everything beyond that is rejected immediately with HTTP 429
// rather than queued without bound. Cache hits bypass the worker pool
// entirely. Drain (SIGTERM in cmd/sspserved) stops admission and waits for
// the in-flight tail.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssp/internal/exp"
	"ssp/internal/flight"
	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/tune"
)

// ErrBusy is returned (as HTTP 429) when the server is at capacity: every
// worker busy and the admission queue full.
var ErrBusy = errors.New("serve: at capacity")

// errDraining is returned (as HTTP 503) once Drain has begun.
var errDraining = errors.New("serve: draining")

// Config sizes a Server.
type Config struct {
	// Workers is the number of served runs allowed to compute
	// concurrently, and each tune search's fan-out. 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
	// Queue is how many admitted jobs may wait for a worker beyond the
	// ones running; past Workers+Queue in flight, requests are rejected
	// with 429. 0 means 4×Workers.
	Queue int
	// DefaultTimeout bounds jobs that do not set timeout_ms. 0 means 120s.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps the request body (source programs can be large
	// but not unbounded). 0 means 4 MiB.
	MaxBodyBytes int64
	// EnableTune admits tune-mode jobs (JobSpec.Tune): closed-loop
	// searches that cost many simulations each. Off by default; without
	// it tune jobs are rejected with 403.
	EnableTune bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 4 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 120 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 4 << 20
	}
	return c
}

// Server is the HTTP handler. Construct with New; the zero value is not
// usable.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	start time.Time

	// sem is the worker pool: one token per concurrently running
	// simulation. Only cache misses acquire it; hits and coalesced
	// waiters never occupy a slot.
	sem chan struct{}

	inflight atomic.Int64
	draining atomic.Bool
	// admitMu serializes request admission (wg.Add) against Drain
	// (draining=true then wg.Wait), closing the window where a request
	// has passed the draining check but not yet registered itself.
	admitMu sync.Mutex
	wg      sync.WaitGroup

	// tuners holds the closed-loop tuner of each scale (indexed by
	// exp.Scale); its Suite is that scale's one pipeline cache, which plain
	// jobs and tune searches both resolve through.
	tuners [2]*tune.Tuner

	mu sync.Mutex
	// tunes memoizes tune-mode jobs by the same content key scheme; the
	// key covers the tune parameters, so searches with different rounds,
	// epsilon, or grid never share a cell.
	tunes map[string]*flight.Cell[*tune.Result]

	requests atomic.Int64 // jobs accepted for processing
	hits     atomic.Int64 // served without running a simulation
	misses   atomic.Int64 // ran the pipeline
	failures atomic.Int64 // jobs that ended in an error
	rejected atomic.Int64 // 429s + 503s (capacity and drain)
	unsafe   atomic.Int64 // 422s (source IR failed the safety verifier)
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	s := &Server{
		cfg:   cfg.withDefaults(),
		start: time.Now(),
		tunes: make(map[string]*flight.Cell[*tune.Result]),
	}
	for _, sc := range []exp.Scale{exp.ScaleTest, exp.ScalePaper} {
		suite := exp.NewSuite(sc)
		suite.Workers = s.cfg.Workers
		s.tuners[sc] = tune.New(suite)
	}
	s.sem = make(chan struct{}, s.cfg.Workers)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /jobs", s.handleJob)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Drain stops admitting jobs (healthz goes unhealthy, new jobs get 503) and
// waits for every in-flight job to finish or for ctx to expire.
func (s *Server) Drain(ctx context.Context) error {
	s.admitMu.Lock()
	s.draining.Store(true)
	s.admitMu.Unlock()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// Stats is the /statz payload.
type Stats struct {
	UptimeSec float64       `json:"uptime_sec"`
	Requests  int64         `json:"requests"`
	Hits      int64         `json:"hits"`
	Misses    int64         `json:"misses"`
	Failures  int64         `json:"failures"`
	Rejected  int64         `json:"rejected"`
	Unsafe    int64         `json:"unsafe"`
	InFlight  int64         `json:"in_flight"`
	Draining  bool          `json:"draining"`
	Cells     int           `json:"cells"`
	Pool      sim.PoolStats `json:"pool"`
}

// Snapshot returns the server's counters (the /statz payload, for in-process
// callers like the load harness).
func (s *Server) Snapshot() Stats {
	s.mu.Lock()
	cells := len(s.tunes)
	s.mu.Unlock()
	var pool sim.PoolStats
	for _, tn := range s.tuners {
		cells += tn.Suite.Cells()
		ps := tn.Suite.PoolStats()
		pool.Gets, pool.Hits, pool.Puts = pool.Gets+ps.Gets, pool.Hits+ps.Hits, pool.Puts+ps.Puts
	}
	return Stats{
		UptimeSec: time.Since(s.start).Seconds(),
		Requests:  s.requests.Load(),
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Failures:  s.failures.Load(),
		Rejected:  s.rejected.Load(),
		Unsafe:    s.unsafe.Load(),
		InFlight:  s.inflight.Load(),
		Draining:  s.draining.Load(),
		Cells:     cells,
		Pool:      pool,
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Snapshot())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.admitMu.Lock()
	if s.draining.Load() {
		s.admitMu.Unlock()
		s.rejected.Add(1)
		http.Error(w, errDraining.Error(), http.StatusServiceUnavailable)
		return
	}
	s.wg.Add(1)
	s.admitMu.Unlock()
	defer s.wg.Done()

	var spec JobSpec
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&spec); err != nil {
		http.Error(w, "bad job: "+err.Error(), http.StatusBadRequest)
		return
	}
	j, err := spec.normalize(s.cfg.DefaultTimeout)
	if err != nil {
		http.Error(w, "bad job: "+err.Error(), http.StatusBadRequest)
		return
	}
	if j.Tune != nil {
		if !s.cfg.EnableTune {
			s.rejected.Add(1)
			http.Error(w, "tune jobs are disabled on this server (start sspserved with -tune)",
				http.StatusForbidden)
			return
		}
		if wantsSSE(r) {
			http.Error(w, "bad job: tune jobs do not support streaming", http.StatusBadRequest)
			return
		}
	}

	// Safety gate: user-submitted IR may carry hand-written slice regions,
	// and the machines will happily spawn whatever is attached. Any slice
	// in a source job must pass the speculation-safety verifier at the
	// ceiling of the machine the job would run on; violations are 422
	// with the machine-readable report, before the job can reach a cache
	// cell or a worker (unsafe programs are never cached, so a later
	// fixed submission is a fresh key and a fresh verification).
	if j.Source != "" {
		if rep, err := s.vetSource(j); err != nil {
			s.unsafe.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusUnprocessableEntity)
			json.NewEncoder(w).Encode(UnsafeResponse{Error: err.Error(), Safety: rep})
			return
		}
	}

	// Admission: bound the total number of jobs in the building, counting
	// both running and queued. Everything past that is load the server
	// should not buffer; the client retries or backs off.
	if n := s.inflight.Add(1); n > int64(s.cfg.Workers+s.cfg.Queue) {
		s.inflight.Add(-1)
		s.rejected.Add(1)
		http.Error(w, ErrBusy.Error(), http.StatusTooManyRequests)
		return
	}
	defer s.inflight.Add(-1)
	s.requests.Add(1)

	ctx, cancel := context.WithTimeout(r.Context(), j.timeout)
	defer cancel()

	key := j.key()
	if j.Tune != nil {
		start := time.Now()
		res, hit, err := s.runTune(ctx, j, key)
		if err != nil {
			http.Error(w, err.Error(), statusOf(err))
			return
		}
		writeJSON(w, JobResponse{
			Key:    key,
			Cached: hit,
			WallMS: float64(time.Since(start)) / float64(time.Millisecond),
			Tune:   res,
		})
		return
	}

	h := s.served(j)
	if wantsSSE(r) {
		s.streamJob(ctx, w, key, h)
		return
	}
	start := time.Now()
	res, hit, err := s.runJob(ctx, h)
	if err != nil {
		http.Error(w, err.Error(), statusOf(err))
		return
	}
	writeJSON(w, JobResponse{
		Key:    key,
		Cached: hit,
		WallMS: float64(time.Since(start)) / float64(time.Millisecond),
		Result: res,
	})
}

// runTune resolves a tune-mode job through its memoization cell. The job
// takes no worker slot: its search resolves cells of the shared suite, one of
// which a served request waiting for a slot may be computing, so a slot held
// by the search could wait on itself. Admission (Workers+Queue) still bounds
// it, and the search fans out over the suite's Workers.
func (s *Server) runTune(ctx context.Context, j job, key string) (res *tune.Result, hit bool, err error) {
	s.mu.Lock()
	c, ok := s.tunes[key]
	if !ok {
		c = new(flight.Cell[*tune.Result])
		s.tunes[key] = c
	}
	s.mu.Unlock()
	ran := false
	res, err = c.Do(ctx, func(ctx context.Context) (*tune.Result, error) {
		ran = true
		grid := tune.FullGrid()
		if j.Tune.Grid == "quick" {
			grid = tune.QuickGrid()
		}
		params := tune.Params{MaxRounds: j.Tune.Rounds, Epsilon: j.Tune.Epsilon}
		return s.tuners[j.scale()].Tune(ctx, j.Bench, j.Model, params, grid)
	})
	if s.account(ran, err) {
		return nil, false, err
	}
	return res, !ran, nil
}

// runJob resolves one admitted job through its run cell in the suite of its
// scale, reporting whether this request was served without running a
// simulation (a cached outcome or a coalesced ride on another request's run).
func (s *Server) runJob(ctx context.Context, h exp.Served) (*JobResult, bool, error) {
	res, rep, ran, err := h.Do(ctx, s.acquire)
	if s.account(ran, err) {
		return nil, false, err
	}
	return toJobResult(res, rep), !ran, nil
}

// served returns the job's handle on its run cell.
func (s *Server) served(j job) exp.Served {
	var opt *ssp.Options
	if j.Variant == varSSP {
		opt = &j.Options
	}
	return s.tuners[j.scale()].Suite.Served(j.Bench, j.Source, j.Model, opt)
}

// account counts one resolved job — a miss if this request computed it, a
// hit otherwise, and a failure on error — and reports whether it failed.
func (s *Server) account(ran bool, err error) bool {
	if ran {
		s.misses.Add(1)
	} else {
		s.hits.Add(1)
	}
	if err != nil {
		s.failures.Add(1)
	}
	return err != nil
}

// acquire takes a worker slot for the one request that computes a run cell;
// waiting here is the admission queue.
func (s *Server) acquire(ctx context.Context) (func(), error) {
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// UnsafeResponse is the HTTP 422 payload for source jobs whose IR fails the
// speculation-safety verifier: the first violation as a message plus the
// full machine-readable report (per-slice certificates and every violation).
type UnsafeResponse struct {
	Error  string            `json:"error"`
	Safety *ssp.SafetyReport `json:"safety"`
}

// vetSource statically verifies user-submitted IR before admission: any
// slice regions it carries must be provably bounded and state-isolated at
// the MaxSpecInstrs ceiling of the machine the job would run on. Programs
// without slices pass trivially. The report is returned either way so the
// 422 path can hand it to the client.
func (s *Server) vetSource(j job) (*ssp.SafetyReport, error) {
	p, err := ir.Parse(j.Source) // normalize already proved it parses
	if err != nil {
		return nil, err
	}
	rep := ssp.AnalyzeSafety(p, s.tuners[j.scale()].Suite.MachineConfig(j.Model).MaxSpecInstrs)
	return rep, rep.Err()
}

// statusOf maps a job error to its HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log's benefit.
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrBusy):
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
