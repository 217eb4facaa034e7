package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"ssp/internal/serve"
)

// startServed runs the daemon on an ephemeral port and returns its base URL
// and a cancel that triggers the graceful drain; the returned channel carries
// run's exit error.
func startServed(t *testing.T, o options) (string, context.CancelFunc, <-chan error) {
	t.Helper()
	o.Addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- run(ctx, o, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, cancel, done
	case err := <-done:
		t.Fatalf("server exited before binding: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("server never became ready")
	}
	panic("unreachable")
}

func postJob(t *testing.T, base string, spec serve.JobSpec) (int, *serve.JobResponse) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var jr serve.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, &jr
}

// TestRunServesAndDrains boots the daemon end to end: serve a job, answer
// healthz/statz, reject a tune job (tuning is off by default), then drain
// cleanly on cancellation.
func TestRunServesAndDrains(t *testing.T) {
	base, cancel, done := startServed(t, options{Timeout: time.Minute, DrainGrace: 30 * time.Second})

	code, jr := postJob(t, base, serve.JobSpec{Bench: "mst", Model: "in-order"})
	if code != http.StatusOK || jr.Result == nil || jr.Result.Cycles <= 0 {
		t.Fatalf("job: HTTP %d, response %+v", code, jr)
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var st serve.Stats
	resp, err = http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Requests != 1 || st.Misses != 1 {
		t.Errorf("statz after one job: %+v", st)
	}

	// Tune mode is opt-in; without -tune the server must refuse.
	if code, _ := postJob(t, base, serve.JobSpec{Bench: "mst", Model: "in-order", Tune: &serve.TuneSpec{}}); code != http.StatusForbidden {
		t.Errorf("tune job without -tune: HTTP %d, want 403", code)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run exited with %v after drain", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("run did not exit after cancellation")
	}
}

// TestRunTuneFlag: with tuning enabled, a tune-mode job round-trips through
// the daemon and returns the search result.
func TestRunTuneFlag(t *testing.T) {
	base, cancel, done := startServed(t, options{Timeout: 5 * time.Minute, DrainGrace: 30 * time.Second, EnableTune: true})
	defer func() {
		cancel()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Error("run did not exit after cancellation")
		}
	}()

	code, jr := postJob(t, base, serve.JobSpec{
		Bench: "mcf", Model: "in-order",
		Tune: &serve.TuneSpec{Rounds: 2, Grid: "quick"},
	})
	if code != http.StatusOK || jr.Tune == nil || jr.Tune.Best == nil {
		t.Fatalf("tune job: HTTP %d, response %+v", code, jr)
	}
	if jr.Tune.Best.Best < jr.Tune.OneShot {
		t.Errorf("tuned %.3fx below one-shot %.3fx", jr.Tune.Best.Best, jr.Tune.OneShot)
	}
}

// TestRunBadAddr: an unusable listen address is an immediate error, not a
// hang.
func TestRunBadAddr(t *testing.T) {
	err := run(context.Background(), options{Addr: "256.256.256.256:0"}, nil)
	if err == nil {
		t.Fatal("run accepted an unusable address")
	}
}

// TestRunCacheFlag: -cache-mb sets each scale's pipeline-cache budget, and
// /statz reports it.
func TestRunCacheFlag(t *testing.T) {
	for _, tc := range []struct {
		mb, want int64
	}{
		{0, (32 + 256) << 20},
		{4, 2 * 4 << 20},
		{-1, 0},
	} {
		base, cancel, done := startServed(t, options{Timeout: time.Minute, DrainGrace: 30 * time.Second, CacheMB: tc.mb})
		var st serve.Stats
		resp, err := http.Get(base + "/statz")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.Cache.BudgetBytes != tc.want {
			t.Errorf("-cache-mb %d: statz budget %d bytes, want %d", tc.mb, st.Cache.BudgetBytes, tc.want)
		}
		cancel()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
