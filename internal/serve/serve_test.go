package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ssp/internal/exp"
	"ssp/internal/handtuned"
	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// post submits a job and returns the status code and decoded response (or
// the error body when the status is not 200).
func post(t *testing.T, ts *httptest.Server, spec JobSpec) (int, *JobResponse, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, nil, strings.TrimSpace(string(msg))
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &jr, ""
}

// submit posts spec over HTTP, as a streamed job when sse is set, and
// returns the response with the names of the events the stream carried. It
// reports failures as errors, so concurrent clients can call it.
func submit(ts *httptest.Server, spec JobSpec, sse bool) (*JobResponse, []string, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, nil, err
	}
	req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	if sse {
		req.Header.Set("Accept", "text/event-stream")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	if !sse {
		var jr JobResponse
		return &jr, nil, json.NewDecoder(resp.Body).Decode(&jr)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return nil, nil, fmt.Errorf("SSE content type %q", ct)
	}
	var events []string
	event := ""
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if ev, ok := strings.CutPrefix(line, "event: "); ok {
			event = ev
			events = append(events, ev)
			continue
		}
		data, ok := strings.CutPrefix(line, "data: ")
		switch {
		case ok && event == "result":
			var jr JobResponse
			return &jr, events, json.Unmarshal([]byte(data), &jr)
		case ok && event == "error":
			return nil, events, fmt.Errorf("error event: %s", data)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, events, err
	}
	return nil, events, fmt.Errorf("stream ended without a result event (events: %v)", events)
}

// TestGoldenEquality: a served result must be byte-identical to the same
// cell computed by the experiment suite — the property that makes the
// serving layer an experiment cache rather than a second implementation.
func TestGoldenEquality(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	suite := exp.NewSuite(exp.ScaleTest)
	for _, variant := range []string{"base", "ssp"} {
		code, jr, msg := post(t, ts, JobSpec{Bench: "mcf", Model: "in-order", Variant: variant})
		if code != http.StatusOK {
			t.Fatalf("mcf/%s: HTTP %d: %s", variant, code, msg)
		}
		want, err := suite.Run("mcf", sim.InOrder, exp.Variant(variant))
		if err != nil {
			t.Fatal(err)
		}
		got := jr.Result
		if got.Cycles != want.Cycles || got.Breakdown != want.Breakdown ||
			got.MainInstrs != want.MainInstrs || got.SpecInstrs != want.SpecInstrs ||
			got.Spawns != want.Spawns || got.ChkTaken != want.ChkTaken ||
			got.Mispredicts != want.Mispredicts ||
			got.MemAccesses != want.Hier.Totals.Accesses ||
			got.MemL1Hits != want.Hier.Totals.Hits[0][0] ||
			got.MissCycles != want.Hier.Totals.MissCycles ||
			got.TLBMisses != want.Hier.Totals.TLBMisses {
			t.Errorf("mcf/%s: served result diverged from the suite:\n got %+v\nwant cycles=%d", variant, got, want.Cycles)
		}
		if variant == "ssp" && got.Slices == 0 {
			t.Errorf("ssp job reported zero slices")
		}
	}
}

// TestConcurrentMatrixGolden: every served cell of the test-scale matrix
// (each benchmark on both models, base and ssp) equals its entry in the
// golden-stats baseline field for field. Eight concurrent clients post the
// 48 cells, every 10th over SSE; in a second pass every reply must come
// from the cache.
func TestConcurrentMatrixGolden(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "exp", "testdata", "golden_stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	// The baseline records every JobResult field but Slices.
	var golden map[string]JobResult
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	var names []string
	var specs []JobSpec
	for _, b := range exp.Benchmarks() {
		for _, model := range []string{"in-order", "ooo"} {
			for _, variant := range []string{"base", "ssp"} {
				names = append(names, b+"/"+model+"/"+variant)
				specs = append(specs, JobSpec{Bench: b, Model: model, Variant: variant})
			}
		}
	}
	const clients = 8
	// Workers+Queue admits every client's job, so none is turned away.
	_, ts := newTestServer(t, Config{Queue: clients})
	for pass := range 2 {
		replies := make([]*JobResponse, len(specs))
		errs := make([]error, len(specs))
		work := make(chan int)
		var wg sync.WaitGroup
		for range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range work {
					replies[i], _, errs[i] = submit(ts, specs[i], i%10 == 9)
				}
			}()
		}
		for i := range specs {
			work <- i
		}
		close(work)
		wg.Wait()
		for i, name := range names {
			if errs[i] != nil {
				t.Errorf("pass %d: %s: %v", pass, name, errs[i])
				continue
			}
			if pass > 0 && !replies[i].Cached {
				t.Errorf("pass %d: %s: not served from cache", pass, name)
			}
			want, ok := golden[name]
			got := *replies[i].Result
			if specs[i].Variant == "ssp" && got.Slices == 0 {
				t.Errorf("pass %d: %s: ssp job reported zero slices", pass, name)
			}
			got.Slices = 0
			if !ok || got != want {
				t.Errorf("pass %d: %s: served result differs from golden_stats.json:\n got %+v\nwant %+v", pass, name, got, want)
			}
		}
	}
}

// TestSourceJob: a job submitted as assembly source must simulate exactly
// like the same program submitted as a built-in benchmark (minus the
// checksum verification, which source jobs have no expected value for).
func TestSourceJob(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := workloads.Mcf()
	p, _ := spec.Build(spec.TestScale)
	code, src, msg := post(t, ts, JobSpec{Source: ir.Format(p), Model: "ooo"})
	if code != http.StatusOK {
		t.Fatalf("source job: HTTP %d: %s", code, msg)
	}
	code, bench, msg := post(t, ts, JobSpec{Bench: "mcf", Model: "ooo"})
	if code != http.StatusOK {
		t.Fatalf("bench job: HTTP %d: %s", code, msg)
	}
	if *src.Result != *bench.Result {
		t.Errorf("source job diverged from the identical bench job:\n got %+v\nwant %+v", src.Result, bench.Result)
	}
}

// TestMainKillSourceFails: a source program whose main thread kills itself
// is the client's fault: a 422 whose JSON body names the kill. Each
// submission counts one failure, and a repeated submission fails again: no
// result was cached for it.
func TestMainKillSourceFails(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	p := ir.NewProgram("main")
	e := ir.NewFunc(p, "main").Block("entry")
	e.MovI(20, 5)
	e.Kill()
	// The last job repeats the first.
	for _, model := range []string{"in-order", "ooo", "in-order"} {
		before := s.Snapshot().Failures
		code, _, msg := post(t, ts, JobSpec{Source: ir.Format(p), Model: model})
		var rf RunFailedResponse
		if code != http.StatusUnprocessableEntity || json.Unmarshal([]byte(msg), &rf) != nil ||
			rf.Reason != "main-kill" || !strings.Contains(rf.Error, "thread_kill_self") {
			t.Fatalf("%s: HTTP %d (%s), want a 422 naming the kill", model, code, msg)
		}
		if got := s.Snapshot().Failures - before; got != 1 {
			t.Errorf("%s: failures counter moved by %d, want 1", model, got)
		}
	}
	// A streamed submission ends in an error event with the same status
	// and reason.
	_, events, err := submit(ts, JobSpec{Source: ir.Format(p), Model: "in-order"}, true)
	if err == nil || len(events) == 0 || events[len(events)-1] != "error" ||
		!strings.Contains(err.Error(), `"status":422`) || !strings.Contains(err.Error(), `"reason":"main-kill"`) {
		t.Fatalf("SSE stream does not end in a 422 main-kill error event (events %v): %v", events, err)
	}
}

// TestUnsafeSourceRejected: user-submitted IR whose slice regions fail the
// speculation-safety verifier is a 422 with the machine-readable report —
// every time, because rejected programs never enter a cache cell. Safe
// slice-bearing IR (a hand adaptation) still passes the gate.
func TestUnsafeSourceRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := workloads.Mcf()
	orig, _ := spec.Build(spec.TestScale)
	safe, err := handtuned.Adapt("mcf", orig)
	if err != nil {
		t.Fatal(err)
	}
	unsafeP, ok := ssp.InjectUnsafe(safe, ssp.SafetyStore)
	if !ok {
		t.Fatal("hand-adapted mcf has no slice to corrupt")
	}
	job := JobSpec{Source: ir.Format(unsafeP), Model: "in-order"}
	for round := 0; round < 2; round++ {
		code, _, msg := post(t, ts, job)
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("round %d: HTTP %d (%s), want 422", round, code, msg)
		}
		var ur UnsafeResponse
		if err := json.Unmarshal([]byte(msg), &ur); err != nil {
			t.Fatalf("round %d: 422 body is not an UnsafeResponse: %v\n%s", round, err, msg)
		}
		if ur.Safety == nil || len(ur.Safety.Violations) == 0 {
			t.Fatalf("round %d: 422 response carries no safety report: %s", round, msg)
		}
		if got := ur.Safety.Violations[0].Class; got != ssp.SafetyStore {
			t.Errorf("round %d: violation class %q, want %q", round, got, ssp.SafetyStore)
		}
		if !strings.Contains(ur.Error, string(ssp.SafetyStore)) {
			t.Errorf("round %d: error %q does not name the class", round, ur.Error)
		}
	}
	st := s.Snapshot()
	if st.Unsafe != 2 {
		t.Errorf("unsafe counter = %d, want 2 (both submissions verified, neither cached)", st.Unsafe)
	}
	if st.Cells != 0 || st.Requests != 0 {
		t.Errorf("unsafe job leaked into the pipeline: cells=%d requests=%d, want 0/0", st.Cells, st.Requests)
	}
	// The fixed (safe) program passes the same gate and simulates.
	code, jr, msg := post(t, ts, JobSpec{Source: ir.Format(safe), Model: "in-order"})
	if code != http.StatusOK {
		t.Fatalf("safe hand-adapted source: HTTP %d: %s", code, msg)
	}
	if jr.Result.Spawns == 0 {
		t.Errorf("hand-adapted source ran but spawned no speculative threads")
	}
}

// TestTriggerProbesRejected: a submitted program whose chk.c diverts the
// main thread into a block that writes a main-thread register would change
// the main thread's result, whether or not the block carries the tool's stub
// label. Each probe is a 422 whose report carries the trigger class; it
// counts as unsafe and never enters the pipeline.
func TestTriggerProbesRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	probes := []string{"probe_chk_nonstub.ssp", "probe_stub_write.ssp"}
	for _, name := range probes {
		src, err := os.ReadFile(filepath.Join("..", "ssp", "testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		code, _, msg := post(t, ts, JobSpec{Source: string(src), Model: "in-order"})
		if code != http.StatusUnprocessableEntity {
			t.Fatalf("%s: HTTP %d (%s), want 422", name, code, msg)
		}
		var ur UnsafeResponse
		if err := json.Unmarshal([]byte(msg), &ur); err != nil {
			t.Fatalf("%s: 422 body is not an UnsafeResponse: %v\n%s", name, err, msg)
		}
		if ur.Safety == nil || len(ur.Safety.Violations) == 0 || ur.Safety.Violations[0].Class != ssp.SafetyTrigger {
			t.Errorf("%s: report %+v, want a %q violation", name, ur.Safety, ssp.SafetyTrigger)
		}
	}
	st := s.Snapshot()
	if st.Unsafe != int64(len(probes)) || st.Cells != 0 || st.Requests != 0 {
		t.Errorf("statz unsafe=%d cells=%d requests=%d, want %d/0/0", st.Unsafe, st.Cells, st.Requests, len(probes))
	}
}

// TestCacheHitAndCoalesce: the second identical job is a cache hit, and a
// concurrent burst on a cold key runs exactly one simulation.
func TestCacheHitAndCoalesce(t *testing.T) {
	s, ts := newTestServer(t, Config{Queue: 64})
	spec := JobSpec{Bench: "treeadd.df", Model: "in-order", Variant: "base"}

	const burst = 16
	var wg sync.WaitGroup
	codes := make([]int, burst)
	cached := make([]bool, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, jr, _ := post(t, ts, spec)
			codes[i] = code
			if jr != nil {
				cached[i] = jr.Cached
			}
		}(i)
	}
	wg.Wait()
	misses := 0
	for i := 0; i < burst; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("burst request %d: HTTP %d", i, codes[i])
		}
		if !cached[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("burst of %d identical jobs ran %d simulations, want 1", burst, misses)
	}
	if st := s.Snapshot(); st.Misses != 1 || st.Hits != burst-1 {
		t.Errorf("statz after burst: misses=%d hits=%d, want 1/%d", st.Misses, st.Hits, burst-1)
	}

	code, jr, _ := post(t, ts, spec)
	if code != http.StatusOK || !jr.Cached {
		t.Errorf("repeat job: code=%d cached=%v, want 200/true", code, jr.Cached)
	}
}

// spinSource is a program whose main thread branches to itself forever: a
// source job of it simulates until its request is cancelled.
func spinSource() string {
	p := ir.NewProgram("main")
	ir.NewFunc(p, "main").Block("loop").Br("loop")
	return ir.Format(p)
}

// spin posts a spinning test-scale source job and returns once its machine
// runs, holding one of the test-scale suite's Workers slots. stop cancels
// the job's request and waits for the client to see it end; the test's
// cleanup calls it too, so a failed test does not leave the server busy.
func spin(t *testing.T, s *Server, ts *httptest.Server) (stop func()) {
	t.Helper()
	body, err := json.Marshal(JobSpec{Source: spinSource(), Model: "in-order"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	stop = func() { cancel(); <-done }
	t.Cleanup(stop)
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Pool.Gets < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the spinning job never started simulating")
		}
		time.Sleep(time.Millisecond)
	}
	return stop
}

// waitInflight waits until n jobs are admitted.
func waitInflight(t *testing.T, s *Server, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("admitted jobs never reached %d in the inflight count", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBackpressure: with the one simulation slot and the queue position
// occupied, the next job is rejected immediately with 429; once capacity
// frees up the same job succeeds (the rejection was never cached).
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})

	// A spinning job holds the single slot, so the next admitted job
	// waits for it deterministically.
	stop := spin(t, s, ts)
	result := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, JobSpec{Bench: "mst", Model: "in-order"})
		result <- code
	}()
	waitInflight(t, s, 2) // Workers+Queue

	code, _, msg := post(t, ts, JobSpec{Bench: "mst", Model: "in-order"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("job over capacity: HTTP %d (%s), want 429", code, msg)
	}
	if st := s.Snapshot(); st.Rejected == 0 {
		t.Errorf("rejection not counted in statz")
	}

	stop()
	if code := <-result; code != http.StatusOK {
		t.Fatalf("queued job finished with HTTP %d", code)
	}
	code, jr, _ := post(t, ts, JobSpec{Bench: "mst", Model: "in-order"})
	if code != http.StatusOK {
		t.Fatalf("job after backpressure cleared: HTTP %d", code)
	}
	if !jr.Cached {
		t.Errorf("job after backpressure should hit the cache filled by the queued jobs")
	}
}

// TestSSEFraming: a streaming job emits a queued event and a terminal result
// event carrying the same payload a plain request gets.
func TestSSEFraming(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := JobSpec{Bench: "health", Model: "in-order"}
	code, plain, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("plain job: HTTP %d: %s", code, msg)
	}
	result, events, err := submit(ts, spec, true)
	if err != nil {
		t.Fatalf("SSE job: %v", err)
	}
	if events[0] != "queued" {
		t.Fatalf("first event %v, want queued (events: %v)", events[0], events)
	}
	if !result.Cached {
		t.Errorf("streamed repeat of a cached job reported cached=false")
	}
	if *result.Result != *plain.Result {
		t.Errorf("streamed result diverged from the plain response")
	}
}

// TestBadRequests: malformed jobs are client errors, not server failures.
func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []JobSpec{
		{Model: "in-order"},                           // no program
		{Bench: "nope", Model: "in-order"},            // unknown benchmark
		{Bench: "mcf", Model: "vliw"},                 // unknown model
		{Bench: "mcf", Source: "x", Model: "ooo"},     // both program kinds
		{Bench: "mcf", Model: "ooo", Variant: "hand"}, // unsupported variant
		{Source: "not assembly", Model: "ooo"},        // unparseable source
		{Bench: "mcf", Model: "ooo", TimeoutMS: -1},   // negative timeout
	}
	for i, spec := range cases {
		if code, _, _ := post(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("case %d: HTTP %d, want 400", i, code)
		}
	}
	for _, c := range []struct{ name, body string }{
		// Options with a base variant would fragment the cache key
		// without changing the work.
		{"options on base variant", `{"bench":"mcf","model":"ooo","variant":"base","options":{"MaxSliceSize":4}}`},
		// A typo'd field would otherwise run (and cache) the base variant.
		{"unknown field", `{"bench":"mcf","model":"ooo","varaint":"ssp"}`},
		{"unknown tune field", `{"bench":"mcf","model":"ooo","tune":{"round":2}}`},
		{"trailing object", `{"bench":"mcf","model":"ooo"} {"bench":"vpr","model":"ooo"}`},
		{"trailing brace", `{"bench":"mcf","model":"ooo"}}`},
	} {
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400", c.name, resp.StatusCode)
		}
	}
	// Whitespace after the object is fine.
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{\"bench\":\"mcf\",\"model\":\"ooo\"} \n\t"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("trailing whitespace: HTTP %d, want 200", resp.StatusCode)
	}
}

// TestPartialOptions: an options object overlays ssp.DefaultOptions field
// by field instead of replacing the whole struct, so tuning one knob does
// not silently zero the delinquent cutoff and disable the tool; an empty
// object is the default job (same cache key); a typo'd option name is a 400.
func TestPartialOptions(t *testing.T) {
	mk := func(raw string) (*JobSpec, job, error) {
		spec := &JobSpec{Bench: "mcf", Model: "ooo", Variant: "ssp"}
		if raw != "" {
			spec.Options = json.RawMessage(raw)
		}
		j, err := spec.normalize(time.Minute)
		return spec, j, err
	}
	_, def, err := mk("")
	if err != nil {
		t.Fatal(err)
	}
	_, part, err := mk(`{"ChainUnroll": 2}`)
	if err != nil {
		t.Fatal(err)
	}
	want := ssp.DefaultOptions()
	want.ChainUnroll = 2
	if part.Options != want {
		t.Errorf("partial options did not overlay defaults:\ngot  %+v\nwant %+v", part.Options, want)
	}
	if part.key() == def.key() {
		t.Error("changed option did not change the cache key")
	}
	_, empty, err := mk(`{}`)
	if err != nil {
		t.Fatal(err)
	}
	if empty.key() != def.key() {
		t.Error("empty options object keyed differently from absent options")
	}
	if _, _, err := mk(`{"ChianUnroll": 2}`); err == nil {
		t.Error("typo'd option name was accepted silently")
	}
}

// TestDeadline: an unmeetable per-job deadline surfaces as 504, and — the
// flight integration — does not poison the cell: the same job without the
// deadline then computes fine.
func TestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := JobSpec{Bench: "em3d", Model: "ooo", Variant: "ssp", TimeoutMS: 1}
	code, _, _ := post(t, ts, spec)
	if code != http.StatusGatewayTimeout {
		t.Skipf("1ms deadline did not expire before the job finished (HTTP %d)", code)
	}
	spec.TimeoutMS = 0
	code, jr, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("job after expired-deadline attempt: HTTP %d: %s (cell poisoned?)", code, msg)
	}
	if jr.Cached {
		t.Errorf("post-deadline job reported cached=true; the timeout must not have been cached")
	}
}

// TestDrain: draining flips healthz, rejects new jobs with 503, and Drain
// blocks until in-flight jobs finish.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})

	// A spinning job holds the slot, so it and the job queued behind it
	// pin the drain.
	stop := spin(t, s, ts)
	done := make(chan int, 1)
	go func() {
		code, _, _ := post(t, ts, JobSpec{Bench: "vpr", Model: "in-order"})
		done <- code
	}()
	waitInflight(t, s, 2)

	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(short); err != context.DeadlineExceeded {
		t.Fatalf("drain with a pinned job: %v, want DeadlineExceeded", err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: HTTP %d, want 503", resp.StatusCode)
	}
	if code, _, _ := post(t, ts, JobSpec{Bench: "vpr", Model: "in-order"}); code != http.StatusServiceUnavailable {
		t.Errorf("job while draining: HTTP %d, want 503", code)
	}

	stop() // let the queued job run
	if code := <-done; code != http.StatusOK {
		t.Fatalf("pinned job finished with HTTP %d", code)
	}
	grace, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := s.Drain(grace); err != nil {
		t.Fatalf("drain after the tail finished: %v", err)
	}
}

// TestStatz: the counters add up after a small mixed workload.
func TestStatz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := JobSpec{Bench: "treeadd.bf", Model: "ooo"}
	for i := 0; i < 3; i++ {
		if code, _, msg := post(t, ts, spec); code != http.StatusOK {
			t.Fatalf("job %d: HTTP %d: %s", i, code, msg)
		}
	}
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 3 || st.Misses != 1 || st.Hits != 2 || st.Cells != 1 {
		t.Errorf("statz after 3 identical jobs: %+v", st)
	}
	// The default budgets hold the job's cells: one program, its base
	// binary, the run, and two simulations (the in-order profiling run and
	// the OOO job's).
	c := st.Cache
	if c.BudgetBytes != defaultCacheBytes[exp.ScaleTest]+defaultCacheBytes[exp.ScalePaper] || c.Evictions != 0 ||
		c.Stages["program"].Entries != 1 || c.Stages["binary"].Entries != 1 || c.Stages["run"].Entries != 1 ||
		c.Stages["sim"].Entries != 2 || c.Bytes <= 0 {
		t.Errorf("statz cache after 3 identical jobs: %+v", c)
	}
	// Two clean simulations: the in-order profiling run, which is also the
	// program's baseline cell, and the OOO job's own.
	if st.Pool.Gets != 2 || st.Pool.Puts != 2 {
		t.Errorf("pool %+v, want 2 gets and 2 puts (two clean simulations)", st.Pool)
	}
}

// TestTuneJob: a tune-mode job runs the closed-loop search and returns the
// tune result; an identical repeat is a cache hit on the tune cell.
func TestTuneJob(t *testing.T) {
	_, ts := newTestServer(t, Config{EnableTune: true})
	spec := JobSpec{
		Bench: "mcf", Model: "in-order",
		Tune: &TuneSpec{Rounds: 2, Grid: "quick"},
	}
	code, jr, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("tune job: HTTP %d: %s", code, msg)
	}
	if jr.Result != nil {
		t.Errorf("tune response carries a plain result: %+v", jr.Result)
	}
	res := jr.Tune
	if res == nil || res.Best == nil {
		t.Fatalf("tune response missing the search result: %+v", jr)
	}
	if res.Bench != "mcf" || res.BaseCycles <= 0 || res.OneShot <= 0 {
		t.Fatalf("tune result shape: %+v", res)
	}
	if res.Best.Best < res.OneShot {
		t.Errorf("tuned %.3fx below one-shot %.3fx", res.Best.Best, res.OneShot)
	}

	code, jr2, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("repeat tune job: HTTP %d: %s", code, msg)
	}
	if !jr2.Cached {
		t.Error("identical tune job missed the cache")
	}
	if jr2.Key != jr.Key {
		t.Errorf("identical tune jobs keyed differently: %s vs %s", jr.Key, jr2.Key)
	}
}

// TestTuneDisabled: tune jobs are opt-in; a server without EnableTune
// refuses them outright instead of silently running an expensive search.
func TestTuneDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, _, msg := post(t, ts, JobSpec{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{}})
	if code != http.StatusForbidden {
		t.Fatalf("tune on a tune-disabled server: HTTP %d (%s), want 403", code, msg)
	}
	if st := s.Snapshot(); st.Rejected != 1 {
		t.Errorf("rejection not counted: %+v", st)
	}
}

// TestTuneBadRequests: malformed tune jobs are client errors.
func TestTuneBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{EnableTune: true})
	cases := []JobSpec{
		{Source: "L: halt", Model: "in-order", Tune: &TuneSpec{}},            // tune needs a bench
		{Bench: "mcf", Model: "in-order", Variant: "ssp", Tune: &TuneSpec{}}, // no variant with tune
		{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{Grid: "dense"}},    // unknown grid
		{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{Rounds: -1}},       // negative rounds
		{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{Epsilon: -0.5}},    // negative epsilon
	}
	for i, spec := range cases {
		if code, _, msg := post(t, ts, spec); code != http.StatusBadRequest {
			t.Errorf("case %d: HTTP %d (%s), want 400", i, code, msg)
		}
	}

	// Streaming a tune job is rejected: there is no single cycle counter to
	// stream over a whole search.
	body, _ := json.Marshal(JobSpec{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{}})
	req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("SSE tune job: HTTP %d, want 400", resp.StatusCode)
	}
}

// TestTuneKeying: the cache key separates tune jobs from plain jobs and from
// each other by search parameters, while an empty TuneSpec and an explicitly
// default one coalesce onto the same cell.
func TestTuneKeying(t *testing.T) {
	norm := func(spec JobSpec) job {
		t.Helper()
		j, err := spec.normalize(time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	plain := norm(JobSpec{Bench: "mcf", Model: "in-order"})
	tuned := norm(JobSpec{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{}})
	if plain.key() == tuned.key() {
		t.Error("tune job shares a key with the plain job")
	}
	explicit := norm(JobSpec{Bench: "mcf", Model: "in-order",
		Tune: &TuneSpec{Rounds: 3, Epsilon: 0.02, Grid: "full"}})
	if tuned.key() != explicit.key() {
		t.Error("defaulted and explicitly-default tune specs keyed differently")
	}
	for i, other := range []JobSpec{
		{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{Rounds: 2}},
		{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{Epsilon: 0.1}},
		{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{Grid: "quick"}},
		{Bench: "mcf", Model: "ooo", Tune: &TuneSpec{}},
		{Bench: "health", Model: "in-order", Tune: &TuneSpec{}},
		{Bench: "mcf", Model: "in-order", Scale: "paper", Tune: &TuneSpec{}},
	} {
		if norm(other).key() == tuned.key() {
			t.Errorf("case %d: parameter change did not change the tune key", i)
		}
	}
}

// TestTuneSharesSuiteCache: with a single simulation slot, a tune job and
// plain jobs for the round-0 cells of its quick grid run at once. Neither
// may deadlock on the other: only a running machine holds a slot, and it
// waits on nothing, so a plain job or a search waiting on a cell the other
// computes holds none. Afterwards a plain job that only the search ran (the
// mcf/in-order baseline) is a hit — tune searches and plain jobs share one
// cache.
func TestTuneSharesSuiteCache(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, EnableTune: true})
	const timeoutMS = 60_000 // a deadlock surfaces as a 504, not a hang
	var plain []JobSpec
	for _, opts := range []string{`{}`, `{"ChainUnroll":2}`, `{"ChainUnroll":3}`} {
		plain = append(plain, JobSpec{Bench: "mcf", Model: "in-order", Variant: "ssp",
			Options: json.RawMessage(opts), TimeoutMS: timeoutMS})
	}
	codes := make(chan int, len(plain))
	for _, spec := range plain {
		go func(spec JobSpec) {
			body, _ := json.Marshal(spec)
			resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(spec)
	}
	code, _, msg := post(t, ts, JobSpec{Bench: "mcf", Model: "in-order",
		Tune: &TuneSpec{Rounds: 2, Grid: "quick"}, TimeoutMS: timeoutMS})
	if code != http.StatusOK {
		t.Fatalf("tune job: HTTP %d: %s", code, msg)
	}
	for range plain {
		if code := <-codes; code != http.StatusOK {
			t.Fatalf("plain job alongside the tune job: HTTP %d", code)
		}
	}
	before := s.Snapshot()
	code, jr, msg := post(t, ts, JobSpec{Bench: "mcf", Model: "in-order"})
	if code != http.StatusOK {
		t.Fatalf("base job: HTTP %d: %s", code, msg)
	}
	if !jr.Cached {
		t.Error("base job after the tune search was not a cache hit")
	}
	if after := s.Snapshot(); after.Misses != before.Misses {
		t.Errorf("base job after the tune search counted a miss (%d -> %d)", before.Misses, after.Misses)
	}
}

// TestTuneJobWaitsForSlot: a tune search's simulations take the suite's
// Workers slots like a plain job's, so behind a spinning job that holds the
// only slot, a tune job runs out its deadline (504) without simulating.
func TestTuneJobWaitsForSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, EnableTune: true})
	spin(t, s, ts)
	code, _, msg := post(t, ts, JobSpec{Bench: "mcf", Model: "in-order",
		Tune: &TuneSpec{Rounds: 2, Grid: "quick"}, TimeoutMS: 2000})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("tune job behind a spinning job: HTTP %d (%s), want 504", code, msg)
	}
}

// TestSameImageJobsShareSimulation: two option jobs whose adaptations are
// the same image are two requests but one simulation. The second job
// computes its own run cell, so it is a miss and answers cached: false, yet
// the suite's machine pool hands out no machine for it, and its result is
// the first job's.
func TestSameImageJobsShareSimulation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	spec := JobSpec{Bench: "mcf", Model: "in-order", Variant: "ssp"}
	code, first, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("default job: %d %s", code, msg)
	}
	before := s.Snapshot()
	// A tighter chain bound leaves mcf's test-scale slice unchanged.
	spec.Options = json.RawMessage(`{"ChainBound": 64}`)
	code, second, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("bound=64 job: %d %s", code, msg)
	}
	after := s.Snapshot()
	if second.Key == first.Key || second.Cached {
		t.Fatalf("a job with different options was served as a hit (key %s, cached %v)", second.Key, second.Cached)
	}
	if after.Misses != before.Misses+1 || after.Cells != before.Cells+1 {
		t.Fatalf("misses %d -> %d, cells %d -> %d; want one more of each",
			before.Misses, after.Misses, before.Cells, after.Cells)
	}
	if after.Pool.Gets != before.Pool.Gets {
		t.Fatalf("the same image was simulated again (pool gets %d -> %d)", before.Pool.Gets, after.Pool.Gets)
	}
	a, err := json.Marshal(first.Result)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second.Result)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("jobs sharing one simulation returned different results")
	}
}

// TestSourceResubmitHits: a source job is parsed once per request and the
// suite keys its program by the text's hash, so resubmitting the same text
// is a cache hit with the same result.
func TestSourceResubmitHits(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	spec := JobSpec{Source: ir.Format(workloads.RandomProgram(7)), Model: "in-order", Variant: "ssp"}
	code, first, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("source job: HTTP %d: %s", code, msg)
	}
	code, again, msg := post(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("resubmitted source job: HTTP %d: %s", code, msg)
	}
	if first.Cached || !again.Cached || *first.Result != *again.Result {
		t.Errorf("cached %v then %v, results %+v and %+v; want a miss, then a hit with the same result",
			first.Cached, again.Cached, first.Result, again.Result)
	}
}

// TestEvictedJobRecomputed: under a 1-byte budget every completed cell is
// evicted, so a resubmitted job is computed again (Cached false) and
// returns byte-identical JSON; /statz counts the evictions.
func TestEvictedJobRecomputed(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheBytes: 1})
	for _, spec := range []JobSpec{
		{Source: ir.Format(workloads.RandomProgram(8)), Model: "ooo", Variant: "ssp"},
		{Bench: "mcf", Model: "in-order", Variant: "ssp"},
	} {
		var bodies [2][]byte
		for i := range bodies {
			code, jr, msg := post(t, ts, spec)
			if code != http.StatusOK {
				t.Fatalf("submission %d: HTTP %d: %s", i, code, msg)
			}
			if jr.Cached {
				t.Errorf("submission %d was served from an evicted cell", i)
			}
			var err error
			if bodies[i], err = json.Marshal(jr.Result); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(bodies[0], bodies[1]) {
			t.Errorf("recomputed result differs:\n%s\n%s", bodies[0], bodies[1])
		}
	}
	st := s.Snapshot()
	if st.Cells != 0 || st.Cache.Bytes != 0 || st.Cache.Stages["run"].Evictions != 4 || st.Cache.Stages["sim"].Evictions == 0 {
		t.Errorf("statz after evicting every cell: cells %d, cache %+v", st.Cells, st.Cache)
	}
}

// TestTuneResultsEvicted: tune results live under the same budget as the
// pipeline's cells; an evicted one is searched again to the same result.
func TestTuneResultsEvicted(t *testing.T) {
	s, ts := newTestServer(t, Config{EnableTune: true, CacheBytes: 1})
	spec := JobSpec{Bench: "mcf", Model: "in-order", Tune: &TuneSpec{Rounds: 1, Grid: "quick"}}
	var bodies [2][]byte
	for i := range bodies {
		code, jr, msg := post(t, ts, spec)
		if code != http.StatusOK {
			t.Fatalf("tune job %d: HTTP %d: %s", i, code, msg)
		}
		if jr.Cached {
			t.Errorf("tune job %d was served from an evicted cell", i)
		}
		var err error
		if bodies[i], err = json.Marshal(jr.Tune); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("the recomputed tune result differs")
	}
	if st := s.Snapshot().Cache.Stages; st["tune"].Evictions != 2 || st["tune"].Entries != 0 || st["tune.candidate"].Evictions == 0 {
		t.Errorf("tune stages after two searches under a 1-byte budget: %+v", st)
	}
}

// TestSparsePageSourceRejected: a source whose data section puts one word on
// each of many distinct pages, or on each of many distinct page-table
// leaves, is a 400 once it passes ir.MaxParsedDataPages, and handling it
// allocates under 32 MiB in all, so the live heap grows by less than that.
// The job's validation error wraps ir.ErrDataSpan.
func TestSparsePageSourceRejected(t *testing.T) {
	s := New(Config{})
	for _, layout := range []struct {
		name    string
		entries int
		stride  uint64
	}{
		{"pages", 4 * ir.MaxParsedDataPages, 4 << 10},
		{"leaves", 6000, 8 << 20},
	} {
		var src strings.Builder
		src.WriteString("program entry=main\nfunc main formals=0 {\nentry:\n\thalt\n}\ndata {\n")
		for i := 0; i < layout.entries; i++ {
			fmt.Fprintf(&src, "\t0x%x: 1\n", 0x100000+uint64(i)*layout.stride)
		}
		src.WriteString("}\n")
		spec := JobSpec{Source: src.String(), Model: "in-order"}
		body, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := httptest.NewRecorder()
		s.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(body)))
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", layout.name, w.Code, w.Body)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
			t.Errorf("%s: handling the job allocated %d MiB, over 32", layout.name, grew>>20)
		}
		if _, err := spec.normalize(time.Second); !errors.Is(err, ir.ErrDataSpan) {
			t.Errorf("%s: normalize: %v, want ir.ErrDataSpan", layout.name, err)
		}
	}
}
