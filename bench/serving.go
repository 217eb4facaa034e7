package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ssp/internal/serve"
)

// Serving load: one process, at most 2 client goroutines on 2 keep-alive
// connections, and a server with 2 workers — the host has 2 CPUs.
const (
	serveClients = 2
	serveWorkers = 2
)

// server is an in-process serve.Server on a loopback listener.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan struct{}
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	s := &server{
		srv:  serve.New(serve.Config{Workers: serveWorkers}),
		base: "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	s.hs = &http.Server{Handler: s.srv}
	go func() {
		defer close(s.done)
		s.hs.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops the server and waits for its accept loop to exit.
func (s *server) close() {
	s.hs.Close()
	<-s.done
}

// client is the closed-loop load generator's HTTP side.
type client struct {
	hc      *http.Client
	tr      *http.Transport
	retries atomic.Int64
}

func newClient() *client {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 2 * time.Minute}, tr: tr}
}

// reply is one job's outcome as the client saw it.
type reply struct {
	status  int
	resp    *serve.JobResponse
	unsafe  *serve.UnsafeResponse
	err     error
	latency time.Duration
}

// submit posts one job, retrying 429s (flow control, counted, not failures).
func (c *client) submit(base string, body []byte, sse bool) reply {
	t0 := time.Now()
	for attempt := 0; ; attempt++ {
		req, err := http.NewRequest("POST", base+"/jobs", bytes.NewReader(body))
		if err != nil {
			return reply{err: err}
		}
		req.Header.Set("Content-Type", "application/json")
		if sse {
			req.Header.Set("Accept", "text/event-stream")
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return reply{err: err, latency: time.Since(t0)}
		}
		if resp.StatusCode == http.StatusTooManyRequests && attempt < 100 {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			c.retries.Add(1)
			time.Sleep(time.Duration(1+attempt%10) * time.Millisecond)
			continue
		}
		r := decodeReply(resp, sse)
		resp.Body.Close()
		r.latency = time.Since(t0)
		return r
	}
}

func decodeReply(resp *http.Response, sse bool) reply {
	r := reply{status: resp.StatusCode}
	switch {
	case resp.StatusCode == http.StatusUnprocessableEntity:
		// An error either way: only a job expected to be rejected checks
		// the report instead.
		r.unsafe = new(serve.UnsafeResponse)
		if r.err = json.NewDecoder(resp.Body).Decode(r.unsafe); r.err == nil {
			r.err = fmt.Errorf("HTTP 422: %s", r.unsafe.Error)
		}
	case resp.StatusCode != http.StatusOK:
		msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
		r.err = fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(msg))
	case sse:
		r.resp, r.err = readSSE(resp.Body)
	default:
		r.resp = new(serve.JobResponse)
		r.err = json.NewDecoder(resp.Body).Decode(r.resp)
	}
	io.Copy(io.Discard, resp.Body)
	return r
}

// readSSE consumes an event stream up to its terminal result or error.
func readSSE(body io.Reader) (*serve.JobResponse, error) {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		if name, ok := strings.CutPrefix(line, "event: "); ok {
			event = name
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		switch event {
		case "result":
			var jr serve.JobResponse
			if err := json.Unmarshal([]byte(data), &jr); err != nil {
				return nil, err
			}
			return &jr, nil
		case "error":
			return nil, fmt.Errorf("streamed error: %s", data)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, errors.New("event stream ended without a result")
}

// job is one prepared request.
type job struct {
	name string
	body []byte
	sse  bool
}

// drive runs jobs through serveClients closed-loop clients (each sends its
// next job only after the previous reply) and returns the replies by job
// index. With a meter, the jobs go in batches timed as separate segments
// with a calibration sample between batches. Each job gets a root span when
// tr is non-nil.
func (c *client) drive(base string, jobs []job, tr *Tracer, m *meter, batch int) []reply {
	replies := make([]reply, len(jobs))
	if m == nil {
		c.driveBatch(base, jobs, replies, tr)
		return replies
	}
	for lo := 0; lo < len(jobs); lo += batch {
		hi := min(lo+batch, len(jobs))
		m.time(func() { c.driveBatch(base, jobs[lo:hi], replies[lo:hi], tr) })
		if hi < len(jobs) {
			m.calibrate(1)
		}
	}
	return replies
}

func (c *client) driveBatch(base string, jobs []job, replies []reply, tr *Tracer) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < serveClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				sp := tr.Start("job", Active{})
				replies[i] = c.submit(base, jobs[i].body, jobs[i].sse)
				var attrs map[string]float64
				if r := replies[i]; r.resp != nil {
					attrs = map[string]float64{"server_ms": r.resp.WallMS}
				}
				sp.End(attrs)
			}
		}()
	}
	wg.Wait()
}

// served turns a unit's replies into its ops, latencies and delivered
// simulated cycles.
func served(replies []reply) unit {
	u := unit{ops: len(replies)}
	for _, r := range replies {
		u.latencies = append(u.latencies, r.latency)
		if r.resp != nil && r.resp.Result != nil {
			u.cycles += r.resp.Result.Cycles
		}
	}
	return u
}

// serveLayers sets the serving per-layer metrics of one traced pass from its
// replies and the server counters accumulated during it.
func serveLayers(o *outcome, jobs []job, replies []reply, before, after serve.Stats, retries int64) {
	var hitMS, missMS, transport, sseMS []float64
	for i, r := range replies {
		if r.resp == nil {
			continue
		}
		lat := float64(r.latency) / float64(time.Millisecond)
		if r.resp.Cached {
			hitMS = append(hitMS, r.resp.WallMS)
		} else {
			missMS = append(missMS, r.resp.WallMS)
		}
		if jobs[i].sse {
			sseMS = append(sseMS, lat)
		} else {
			transport = append(transport, lat-r.resp.WallMS)
		}
	}
	o.set("serve.hits", float64(after.Hits-before.Hits))
	o.set("serve.misses", float64(after.Misses-before.Misses))
	o.set("serve.unsafe", float64(after.Unsafe-before.Unsafe))
	o.set("serve.rejected", float64(after.Rejected-before.Rejected))
	o.set("serve.retries_429", float64(retries))
	o.set("serve.pool_reuse", float64(after.Pool.Hits-before.Pool.Hits))
	o.set("serve.server_ms_p50.hit", median(hitMS))
	o.set("serve.server_ms_p50.miss", median(missMS))
	o.set("serve.transport_ms_p50", median(transport))
	o.set("serve.sse_ms_p50", median(sseMS))
}

// loadGolden reads the golden-stats baseline: the expected result of every
// test-scale bench/model/variant cell.
func loadGolden(root string) (map[string]serve.JobResult, error) {
	data, err := os.ReadFile(filepath.Join(root, "internal", "exp", "testdata", "golden_stats.json"))
	if err != nil {
		return nil, fmt.Errorf("golden baseline: %w", err)
	}
	var golden map[string]serve.JobResult
	if err := json.Unmarshal(data, &golden); err != nil {
		return nil, fmt.Errorf("golden baseline: %w", err)
	}
	return golden, nil
}

// sameStats compares two results field for field, ignoring the slice count
// (the golden baseline does not record it).
func sameStats(a, b serve.JobResult) bool {
	a.Slices, b.Slices = 0, 0
	return a == b
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain job specs always marshal
	}
	return data
}
