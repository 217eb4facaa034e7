package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
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
		var sb strings.Builder
		if _, err := fmt.Fprint(&sb, readAll(t, resp)); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, nil, strings.TrimSpace(sb.String())
	}
	var jr JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &jr, ""
}

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	return sb.String()
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

// TestBackpressure: with every worker slot and queue position occupied, the
// next job is rejected immediately with 429; once capacity frees up the same
// job succeeds (the rejection was never cached).
func TestBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})

	// Occupy the single worker slot from the outside so admitted jobs
	// queue deterministically.
	s.sem <- struct{}{}

	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			code, _, _ := post(t, ts, JobSpec{Bench: "mst", Model: "in-order"})
			results <- code
		}()
	}
	// Wait until both are admitted (inflight == Workers+Queue == 2).
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("admitted jobs never showed up in the inflight count")
		}
		time.Sleep(time.Millisecond)
	}

	code, _, msg := post(t, ts, JobSpec{Bench: "mst", Model: "in-order"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("job over capacity: HTTP %d (%s), want 429", code, msg)
	}
	if st := s.Snapshot(); st.Rejected == 0 {
		t.Errorf("rejection not counted in statz")
	}

	<-s.sem // release the stolen slot
	for i := 0; i < 2; i++ {
		if code := <-results; code != http.StatusOK {
			t.Fatalf("queued job finished with HTTP %d", code)
		}
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

	body, _ := json.Marshal(spec)
	req, err := http.NewRequest("POST", ts.URL+"/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("SSE job: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}

	var events []string
	var result *JobResponse
	sc := bufio.NewScanner(resp.Body)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events = append(events, event)
		case strings.HasPrefix(line, "data: ") && event == "result":
			var jr JobResponse
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &jr); err != nil {
				t.Fatalf("result event payload: %v", err)
			}
			result = &jr
		case strings.HasPrefix(line, "data: ") && event == "error":
			t.Fatalf("error event: %s", line)
		}
	}
	if len(events) == 0 || events[0] != "queued" {
		t.Fatalf("first event %v, want queued (events: %v)", events, events)
	}
	if result == nil {
		t.Fatal("stream ended without a result event")
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
	// Options with a base variant are rejected too: they would fragment
	// the cache key without changing the work.
	body := []byte(`{"bench":"mcf","model":"ooo","variant":"base","options":{"MaxSliceSize":4}}`)
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("options on base variant: HTTP %d, want 400", resp.StatusCode)
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

	// Hold the worker slot so an in-flight job pins the drain.
	s.sem <- struct{}{}
	started := make(chan struct{})
	done := make(chan int, 1)
	go func() {
		close(started)
		code, _, _ := post(t, ts, JobSpec{Bench: "vpr", Model: "in-order"})
		done <- code
	}()
	<-started
	deadline := time.Now().Add(5 * time.Second)
	for s.inflight.Load() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(time.Millisecond)
	}

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

	<-s.sem // let the pinned job run
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
	if st.Pool.Puts != 1 {
		t.Errorf("pool puts = %d, want 1 (one clean simulation)", st.Pool.Puts)
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

// TestTuneSharesSuiteCache: with a single worker slot, a tune job and plain
// jobs for the round-0 cells of its quick grid run at once. Neither may
// deadlock on the other: a plain job computing a cell holds the slot while
// the search waits on that cell, so the search itself must never hold the
// slot. Afterwards a plain job that only the search ran (the mcf/in-order
// baseline) is a hit — tune searches and plain jobs share one cache.
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
