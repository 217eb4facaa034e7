// Package serve is the serving layer over the adapt+simulate pipeline: a
// long-running HTTP service that accepts jobs (a built-in benchmark or a
// source program, a machine model, a treatment, tool options) and resolves
// each through the experiment suite's pipeline, so identical jobs —
// concurrent or repeated — cost one simulation.
//
// The server is a thin client of internal/exp: one exp.Suite per scale is
// its only program, binary, run, and simulation cache, with the suite's
// machine configuration, machine pool, and validation discipline, and the
// closed-loop tuner of tune-mode jobs wraps the same suites. A served result
// is therefore the corresponding matrix cell itself — byte-identical to the
// golden-stats baseline — and a job the tuner or the matrix already ran is a
// cache hit. What the server adds is HTTP: admission and 429s, SSE progress,
// safety vetting of source IR, drain, and the tune-result memo.
//
// Capacity is explicit: at most Workers+Queue jobs are admitted at once, and
// everything beyond that is rejected immediately with HTTP 429 rather than
// queued without bound. Each scale's suite runs at most Workers machines at
// once (exp.Suite.Workers), whether plain jobs or tune searches asked for
// them, so the server runs at most 2×Workers simulations; cache hits and
// requests waiting on another's computation run none. Drain (SIGTERM in
// cmd/sspserved) stops admission and waits for the in-flight tail.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ssp/internal/exp"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/tune"
)

// ErrBusy is the HTTP 429 message of a job refused at admission, when
// Workers+Queue jobs are already in flight.
var ErrBusy = errors.New("serve: at capacity")

// errDraining is returned (as HTTP 503) once Drain has begun.
var errDraining = errors.New("serve: draining")

// Config sizes a Server.
type Config struct {
	// Workers is how many simulations each scale's suite runs at once,
	// for plain jobs and tune searches alike. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Queue is how many jobs may be admitted beyond Workers; past
	// Workers+Queue in flight, requests are rejected with 429. 0 means
	// 4×Workers.
	Queue int
	// DefaultTimeout bounds jobs that do not set timeout_ms. 0 means 120s.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps the request body (source programs can be large
	// but not unbounded). 0 means 4 MiB.
	MaxBodyBytes int64
	// EnableTune admits tune-mode jobs (JobSpec.Tune): closed-loop
	// searches that cost many simulations each. Their simulations share
	// the suite's Workers slots with plain jobs. Off by default; without
	// it tune jobs are rejected with 403.
	EnableTune bool
	// CacheBytes is the byte budget of each scale's pipeline cache (its
	// exp.Suite, tune results included): past it, completed cells are
	// evicted by recency and recomputed on their next request. 0 means
	// 32 MiB for the test scale and 256 MiB for the paper scale; a
	// negative value keeps every cell.
	CacheBytes int64
}

// defaultCacheBytes is each scale's default cache budget, indexed by
// exp.Scale. All 48 test-scale matrix cells (12 benchmarks, both models,
// base and ssp) charge about 2.7 MB and all 48 paper-scale cells about
// 67 MB, so a server that only answers the matrix never evicts.
var defaultCacheBytes = [2]int64{exp.ScaleTest: 32 << 20, exp.ScalePaper: 256 << 20}

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

	// tunes memoizes tune-mode jobs of each scale by the same content key
	// scheme, under that scale's cache budget; the key covers the tune
	// parameters, so searches with different rounds, epsilon, or grid
	// never share a cell.
	tunes [2]*exp.Memo[*tune.Result]

	requests atomic.Int64 // jobs accepted for processing
	hits     atomic.Int64 // served without running a simulation
	misses   atomic.Int64 // ran the pipeline
	failures atomic.Int64 // jobs that ended in an error
	rejected atomic.Int64 // 429s + 503s (capacity and drain)
	unsafe   atomic.Int64 // 422s (source IR failed the safety verifier)
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	s := &Server{cfg: cfg.withDefaults(), start: time.Now()}
	for _, sc := range []exp.Scale{exp.ScaleTest, exp.ScalePaper} {
		suite := exp.NewSuite(sc)
		suite.Workers = s.cfg.Workers
		switch b := s.cfg.CacheBytes; {
		case b > 0:
			suite.Budget = b
		case b == 0:
			suite.Budget = defaultCacheBytes[sc]
		}
		s.tuners[sc] = tune.New(suite)
		s.tunes[sc] = exp.NewMemo(suite, "tune", tuneResultBytes)
	}
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
	Cells     int           `json:"cells"` // resident run cells and tune results
	Pool      sim.PoolStats `json:"pool"`
	// Cache is the pipeline caches' accounting, summed over both scales:
	// budget, resident bytes, evictions, and entries, bytes and evictions
	// per stage.
	Cache exp.CacheStats `json:"cache"`
}

// Snapshot returns the server's counters (the /statz payload, for in-process
// callers like the load harness).
func (s *Server) Snapshot() Stats {
	var pool sim.PoolStats
	var cache exp.CacheStats
	for _, tn := range s.tuners {
		ps := tn.Suite.PoolStats()
		pool.Gets, pool.Hits, pool.Puts = pool.Gets+ps.Gets, pool.Hits+ps.Hits, pool.Puts+ps.Puts
		cache.Add(tn.Suite.CacheStats())
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
		Cells:     cache.Stages["run"].Entries + cache.Stages["tune"].Entries,
		Pool:      pool,
		Cache:     cache,
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

	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
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

	// Safety gate: user-submitted IR may carry hand-written attachments,
	// and the machines will happily divert into and spawn whatever is
	// attached. A source job must pass the speculation-safety verifier, the
	// tool's own (ssp.AnalyzeSafety), at the ceiling of the machine the job
	// would run on: its stubs and main-thread code keep the Figure 7 layout
	// and its slices are proven bounded and isolated. Violations are 422
	// with the machine-readable report, before the job can reach a cache
	// cell or a machine (unsafe programs are never cached, so a later
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

	key := j.key()
	if j.Tune != nil {
		ctx, cancel := context.WithTimeout(r.Context(), j.timeout)
		defer cancel()
		start := time.Now()
		res, hit, err := s.runTune(ctx, j, key)
		if err != nil {
			writeJobError(w, err, j.Source != "")
			return
		}
		writeJSON(w, JobResponse{
			Key:    key,
			Cached: hit,
			WallMS: sinceMS(start),
			Tune:   res,
		})
		return
	}

	h := s.served(j)
	if wantsSSE(r) {
		s.streamJob(r.Context(), w, key, h, j)
		return
	}
	start := time.Now()
	res, hit, err := s.runJob(r.Context(), h, j.timeout)
	if err != nil {
		writeJobError(w, err, j.Source != "")
		return
	}
	writeReply(w, key, hit, sinceMS(start), &res)
}

// decodeSpec decodes a job body strictly: an unknown field, in the job or
// its tune spec, and anything but whitespace after the object are errors.
func decodeSpec(body io.Reader) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, errors.New("data after the job object")
	}
	return spec, nil
}

// sinceMS is the time since start in milliseconds: a reply's wall_ms.
func sinceMS(start time.Time) float64 {
	return float64(time.Since(start)) / float64(time.Millisecond)
}

// runTune resolves a tune-mode job through its memoization cell. Admission
// (Workers+Queue) bounds it like any job, and its search's simulations take
// the suite's Workers slots.
func (s *Server) runTune(ctx context.Context, j job, key string) (res *tune.Result, hit bool, err error) {
	res, ran, err := s.tunes[j.scale()].Do(ctx, key, func(ctx context.Context) (*tune.Result, error) {
		grid, err := tune.Grid(j.Tune.Grid)
		if err != nil {
			return nil, err
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
// A cell that already holds its outcome answers at once, with no deadline;
// a request that must compute or wait does so within timeout.
func (s *Server) runJob(ctx context.Context, h exp.Served, timeout time.Duration) (JobResult, bool, error) {
	if res, ok, err := s.cached(h); ok {
		return res, true, err
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	res, rep, ran, err := h.Do(ctx)
	if s.account(ran, err) {
		return JobResult{}, false, err
	}
	return toJobResult(res, rep), !ran, nil
}

// cached answers a job from the outcome its run cell already holds, as a
// hit; ok is false when the cell holds none.
func (s *Server) cached(h exp.Served) (res JobResult, ok bool, err error) {
	r, rep, ok, err := h.Cached()
	if !ok {
		return JobResult{}, false, nil
	}
	if s.account(false, err) {
		return JobResult{}, true, err
	}
	return toJobResult(r, rep), true, nil
}

// served returns the job's handle on its run cell.
func (s *Server) served(j job) exp.Served {
	var opt *ssp.Options
	if j.Variant == varSSP {
		o := j.Options // a copy, so that only ssp jobs allocate it
		opt = &o
	}
	return s.tuners[j.scale()].Suite.Served(j.Bench, j.Source, j.prog, j.Model, opt)
}

// tuneResultBytes charges a tune result for itself: its candidates are the
// tuner's cells, charged there.
func tuneResultBytes(r *tune.Result) int64 { return 512 + 8*int64(len(r.Candidates)) }

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

// UnsafeResponse is the HTTP 422 payload for source jobs whose IR fails the
// speculation-safety verifier: the first violation as a message plus the
// full machine-readable report (per-slice certificates and every violation).
type UnsafeResponse struct {
	Error  string            `json:"error"`
	Safety *ssp.SafetyReport `json:"safety"`
}

// vetSource statically verifies user-submitted IR before admission: its
// attachments must keep the main thread's state unchanged and any slice
// regions must be provably bounded and state-isolated at the MaxSpecInstrs
// ceiling of the machine the job would run on. Programs without attachments
// pass trivially. The report is returned either way so the 422 path can
// hand it to the client.
func (s *Server) vetSource(j job) (*ssp.SafetyReport, error) {
	rep := ssp.AnalyzeSafety(j.prog, s.tuners[j.scale()].Suite.MachineConfig(j.Model).MaxSpecInstrs)
	return rep, rep.Err()
}

// RunFailedResponse is the HTTP 422 payload for a source job whose program
// ran but broke the run rule (sim.Result.Err): Reason is sim.RunError's,
// "watchdog", "main-kill" or "pc-range".
type RunFailedResponse struct {
	Error  string `json:"error"`
	Reason string `json:"reason"`
}

// runFailure returns the run-rule failure behind a source job's error, or
// nil. Such a run is the submitted program's fault, not the server's.
func runFailure(err error, source bool) *sim.RunError {
	var re *sim.RunError
	if source && errors.As(err, &re) {
		return re
	}
	return nil
}

// writeJobError answers a failed job: a 422 RunFailedResponse for a source
// job's run-rule failure, and otherwise the plain-text statusOf status.
func writeJobError(w http.ResponseWriter, err error, source bool) {
	if re := runFailure(err, source); re != nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusUnprocessableEntity)
		json.NewEncoder(w).Encode(RunFailedResponse{Error: err.Error(), Reason: re.Reason})
		return
	}
	http.Error(w, err.Error(), statusOf(err))
}

// statusOf maps a job error to its HTTP status.
func statusOf(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; the status is for the log's benefit.
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}
