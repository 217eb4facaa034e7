// Command serveload drives sspserved's job API under concurrency and checks
// the answers: it submits many adapt+simulate jobs (cycling over the full
// benchmark × model × {base,ssp} matrix), validates every result against the
// pinned golden-stats baseline, and reports throughput, latency quantiles,
// and the memoization hit rate.
//
// With -addr empty (the default) it spins up an in-process server, so
// `go run ./cmd/serveload` is a self-contained load test; point -addr at a
// running sspserved to exercise a real deployment. A fraction of the jobs
// (-sse-every) use the SSE streaming path to keep it honest under load.
//
// Usage:
//
//	serveload -jobs 2500 -conc 32 -out BENCH_serve.json
//
// Exit status is non-zero if any request failed, any result diverged from
// the golden baseline, or the hit rate did not clear 50% — the acceptance
// bar for the serving layer.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssp/internal/serve"
	"ssp/internal/sim"
	"ssp/internal/workloads"
)

// options bundles the command-line parameters of one serveload invocation.
type options struct {
	Addr     string
	Jobs     int
	Conc     int
	SSEEvery int
	Golden   string
	Out      string
}

func main() {
	var o options
	flag.StringVar(&o.Addr, "addr", "", "server address (empty = start an in-process server)")
	flag.IntVar(&o.Jobs, "jobs", 2500, "total jobs to submit")
	flag.IntVar(&o.Conc, "conc", 32, "concurrent clients")
	flag.IntVar(&o.SSEEvery, "sse-every", 50, "every Nth job streams over SSE (0 = never)")
	flag.StringVar(&o.Golden, "golden", "internal/exp/testdata/golden_stats.json",
		"golden-stats baseline to validate results against (empty = skip validation)")
	flag.StringVar(&o.Out, "out", "", "write the benchmark report JSON here")
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "serveload:", err)
		os.Exit(1)
	}
}

// validate rejects counts that leave nothing to measure (usage errors; exit
// 2 before the server starts): no client would drain the job queue, and a
// run of no jobs has no hit rate.
func (o options) validate() error {
	if o.Jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1, got %d", o.Jobs)
	}
	if o.Conc < 1 {
		return fmt.Errorf("-conc must be at least 1, got %d", o.Conc)
	}
	return nil
}

// writeReport writes rep to path. Keys of an existing file that the report
// does not set (recorded experiments beside the load numbers) are kept.
func writeReport(path string, rep report) error {
	fields := make(map[string]json.RawMessage)
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &fields); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, &fields); err != nil {
		return err
	}
	out, err := json.MarshalIndent(fields, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// goldenCell is the validated stat subset, field-compatible with both the
// golden baseline file and the server's result payload.
type goldenCell struct {
	Cycles      int64
	Breakdown   [sim.NumCategories]int64
	MainInstrs  int64
	SpecInstrs  int64
	Spawns      int64
	ChkTaken    int64
	Mispredicts int64
	MemAccesses uint64
	MemL1Hits   uint64
	MissCycles  uint64
	TLBMisses   uint64
}

// jobCase is one cell of the load mix.
type jobCase struct {
	name string // golden key: bench/model/variant
	spec serve.JobSpec
}

// report is the BENCH_serve.json shape.
type report struct {
	Jobs        int     `json:"jobs"`
	Concurrency int     `json:"concurrency"`
	WallSec     float64 `json:"wall_sec"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	Failures    int64   `json:"failures"`
	Mismatches  int64   `json:"mismatches"`
	Validated   int64   `json:"validated"`
	Hits        int64   `json:"hits"`
	HitRate     float64 `json:"hit_rate"`
	Retries429  int64   `json:"retries_429"`
	LatencyMS   struct {
		P50 float64 `json:"p50"`
		P95 float64 `json:"p95"`
		P99 float64 `json:"p99"`
		Max float64 `json:"max"`
	} `json:"latency_ms"`
	// CacheBytes and Evictions are the server's pipeline-cache resident
	// bytes and evictions at the end of the run (from /statz).
	CacheBytes int64       `json:"cache_bytes"`
	Evictions  int64       `json:"evictions"`
	Server     serve.Stats `json:"server"`
}

func run(o options) error {
	addr := o.Addr
	if addr == "" {
		// In-process server: same binary, loopback socket, real HTTP.
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		defer ln.Close()
		srv := serve.New(serve.Config{Queue: 4 * o.Conc})
		go http.Serve(ln, srv)
		addr = ln.Addr().String()
	}
	base := "http://" + addr

	var golden map[string]goldenCell
	if o.Golden != "" {
		data, err := os.ReadFile(o.Golden)
		if err != nil {
			return fmt.Errorf("golden baseline: %w (run from the repo root, or pass -golden '')", err)
		}
		if err := json.Unmarshal(data, &golden); err != nil {
			return fmt.Errorf("golden baseline: %w", err)
		}
	}

	cases := matrix()
	var (
		failures, mismatches, validated, hits, retries atomic.Int64
		mu                                             sync.Mutex
		latencies                                      []time.Duration
		firstErrs                                      []string
	)
	client := &http.Client{Timeout: 5 * time.Minute}
	work := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < o.Conc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				c := cases[i%len(cases)]
				sse := o.SSEEvery > 0 && i%o.SSEEvery == o.SSEEvery-1
				t0 := time.Now()
				resp, err := submit(client, base, c.spec, sse, &retries)
				lat := time.Since(t0)
				if err != nil {
					if failures.Add(1) <= 5 {
						mu.Lock()
						firstErrs = append(firstErrs, fmt.Sprintf("%s: %v", c.name, err))
						mu.Unlock()
					}
					continue
				}
				if resp.Cached {
					hits.Add(1)
				}
				if golden != nil {
					want, ok := golden[c.name]
					var got goldenCell
					remarshal(resp.Result, &got)
					if !ok || !reflect.DeepEqual(got, want) {
						if mismatches.Add(1) <= 5 {
							mu.Lock()
							firstErrs = append(firstErrs, fmt.Sprintf("%s: result diverged from golden baseline", c.name))
							mu.Unlock()
						}
					} else {
						validated.Add(1)
					}
				}
				mu.Lock()
				latencies = append(latencies, lat)
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < o.Jobs; i++ {
		work <- i
	}
	close(work)
	wg.Wait()
	wall := time.Since(start)

	var rep report
	rep.Jobs = o.Jobs
	rep.Concurrency = o.Conc
	rep.WallSec = wall.Seconds()
	rep.JobsPerSec = float64(o.Jobs) / wall.Seconds()
	rep.Failures = failures.Load()
	rep.Mismatches = mismatches.Load()
	rep.Validated = validated.Load()
	rep.Hits = hits.Load()
	rep.HitRate = float64(rep.Hits) / float64(o.Jobs)
	rep.Retries429 = retries.Load()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.LatencyMS.P50 = quantileMS(latencies, 0.50)
	rep.LatencyMS.P95 = quantileMS(latencies, 0.95)
	rep.LatencyMS.P99 = quantileMS(latencies, 0.99)
	rep.LatencyMS.Max = quantileMS(latencies, 1)
	if err := fetchJSON(client, base+"/statz", &rep.Server); err != nil {
		return fmt.Errorf("statz: %w", err)
	}
	rep.CacheBytes, rep.Evictions = rep.Server.Cache.Bytes, rep.Server.Cache.Evictions

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	fmt.Println(string(out))
	if o.Out != "" {
		if err := writeReport(o.Out, rep); err != nil {
			return err
		}
	}
	for _, e := range firstErrs {
		fmt.Fprintln(os.Stderr, "serveload:", e)
	}
	switch {
	case rep.Failures > 0:
		return fmt.Errorf("%d requests failed", rep.Failures)
	case rep.Mismatches > 0:
		return fmt.Errorf("%d results diverged from the golden baseline", rep.Mismatches)
	case rep.HitRate <= 0.5:
		return fmt.Errorf("hit rate %.2f did not clear 0.5", rep.HitRate)
	}
	return nil
}

// matrix is the load mix: the full golden matrix, benchmark × model ×
// {base, ssp} at test scale, named by golden-file key.
func matrix() []jobCase {
	var cases []jobCase
	for _, spec := range workloads.All() {
		for _, model := range []string{"in-order", "ooo"} {
			for _, variant := range []string{"base", "ssp"} {
				cases = append(cases, jobCase{
					name: fmt.Sprintf("%s/%s/%s", spec.Name, model, variant),
					spec: serve.JobSpec{Bench: spec.Name, Model: model, Variant: variant, Scale: "test"},
				})
			}
		}
	}
	return cases
}

// submit runs one job, retrying 429 rejections with backoff (capacity
// rejections are flow control, not failures — but they are counted).
func submit(client *http.Client, base string, spec serve.JobSpec, sse bool, retries *atomic.Int64) (*serve.JobResponse, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if sse {
			req.Header.Set("Accept", "text/event-stream")
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			resp.Body.Close()
			if attempt >= 200 {
				return nil, fmt.Errorf("still at capacity after %d retries", attempt)
			}
			retries.Add(1)
			time.Sleep(time.Duration(1+attempt%10) * 5 * time.Millisecond)
			continue
		}
		defer resp.Body.Close()
		if sse {
			return readSSE(resp)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
			return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(msg))
		}
		var jr serve.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			return nil, err
		}
		return &jr, nil
	}
}

// readSSE consumes a streaming response until its terminal event and returns
// the result (or the in-stream error).
func readSSE(resp *http.Response) (*serve.JobResponse, error) {
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("SSE: HTTP %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "result":
				var jr serve.JobResponse
				if err := json.Unmarshal([]byte(data), &jr); err != nil {
					return nil, err
				}
				return &jr, nil
			case "error":
				var e struct {
					Status int    `json:"status"`
					Error  string `json:"error"`
				}
				if err := json.Unmarshal([]byte(data), &e); err != nil {
					return nil, err
				}
				return nil, fmt.Errorf("HTTP %d (streamed): %s", e.Status, e.Error)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("SSE stream ended without a terminal event")
}

func fetchJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// remarshal copies the golden-comparable subset of a result through JSON,
// which is exactly the representation the baseline file pins.
func remarshal(from, to any) {
	data, err := json.Marshal(from)
	if err == nil {
		err = json.Unmarshal(data, to)
	}
	if err != nil {
		panic(err)
	}
}

func quantileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / float64(time.Millisecond)
}
