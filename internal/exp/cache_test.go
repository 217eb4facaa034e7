package exp

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// liveHeap returns the heap in use after a full collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// sourceJobs returns n distinct source programs in the ir syntax.
func sourceJobs(n int, seed int64) []string {
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = ir.Format(workloads.RandomProgram(seed + int64(i)))
	}
	return srcs
}

// serveSource runs src adapted with the default options on model the way
// the serving layer does: parsed once and handed to the suite.
func serveSource(s *Suite, src string, model sim.Model) (*sim.Result, bool, error) {
	p, err := ir.Parse(src)
	if err != nil {
		return nil, false, err
	}
	opt := ssp.DefaultOptions()
	res, _, ran, err := s.Served("", src, p, model, &opt).Do(context.Background())
	return res, ran, err
}

// mustServe is serveSource on the test goroutine.
func mustServe(t *testing.T, s *Suite, src string, model sim.Model) (*sim.Result, bool) {
	t.Helper()
	res, ran, err := serveSource(s, src, model)
	if err != nil {
		t.Fatal(err)
	}
	return res, ran
}

// serveSources serves every source, the models alternating.
func serveSources(t *testing.T, s *Suite, srcs []string) {
	t.Helper()
	for i, src := range srcs {
		mustServe(t, s, src, bothModels[i%2])
	}
}

// TestBudgetBoundsRetainedHeap: without a budget, the bytes a suite charges
// its cells track the heap they retain; with one, N distinct source jobs
// leave at most the budget plus a fixed slack on the heap, and the budget
// is what evicted the rest.
func TestBudgetBoundsRetainedHeap(t *testing.T) {
	srcs := sourceJobs(100, 31_000)

	unbounded := NewSuite(ScaleTest)
	h0 := liveHeap()
	serveSources(t, unbounded, srcs)
	retained := liveHeap() - h0
	st := unbounded.CacheStats()
	t.Logf("unbounded: retained %d, charged %d", retained, st.Bytes)
	if ratio := float64(st.Bytes) / float64(retained); ratio < 0.8 || ratio > 1.25 {
		t.Errorf("unbounded suite charged %d bytes for %d retained (ratio %.2f, want 0.8-1.25)", st.Bytes, retained, ratio)
	}
	if st.Evictions != 0 {
		t.Errorf("unbounded suite evicted %d cells", st.Evictions)
	}
	runtime.KeepAlive(unbounded)

	// The budget holds about a fifth of what the jobs retain unbounded. The
	// slack covers the estimate's error on the resident cells and what the
	// suite keeps outside its cells: pooled machines and the CLOCK queue.
	const budget, slack = 2 << 20, 1 << 20
	s := NewSuite(ScaleTest)
	s.Budget = budget
	h0 = liveHeap()
	serveSources(t, s, srcs)
	retained = liveHeap() - h0
	st = s.CacheStats()
	t.Logf("budget %d: retained %d, charged %d, %d evictions", budget, retained, st.Bytes, st.Evictions)
	if retained > budget+slack {
		t.Errorf("retained %d bytes, want at most the %d budget plus %d slack", retained, budget, slack)
	}
	if st.Bytes > budget || st.Evictions == 0 {
		t.Errorf("cache stats %+v: want resident bytes within the budget, and evictions", st)
	}
	runtime.KeepAlive(s)
	runtime.KeepAlive(srcs)
}

// TestEvictedCellRecomputes: an evicted job, resubmitted, is computed again
// and returns an identical result.
func TestEvictedCellRecomputes(t *testing.T) {
	src := sourceJobs(1, 32_000)[0]
	s := NewSuite(ScaleTest)
	s.Budget = 1
	first, ran := mustServe(t, s, src, sim.OOO)
	if !ran {
		t.Fatal("first submission did not compute its cell")
	}
	if st := s.CacheStats(); st.Bytes != 0 || st.Stages["run"].Entries != 0 {
		t.Fatalf("a 1-byte budget kept cells resident: %+v", st)
	}
	again, ran := mustServe(t, s, src, sim.OOO)
	if !ran {
		t.Fatal("the evicted job was served without computing")
	}
	if first == again || !reflect.DeepEqual(first, again) {
		t.Fatal("the recomputed result differs from the evicted one (or was not recomputed)")
	}

	// A cached failure is charged and evicted like a value, and fails the
	// same way again.
	for try := 0; try < 2; try++ {
		_, _, ran, err := s.Served("", killSource(), nil, sim.OOO, nil).Do(context.Background())
		if err == nil || !ran {
			t.Fatalf("try %d: ran %v, err %v; want a recomputed failure", try, ran, err)
		}
	}
	if st := s.CacheStats(); st.Bytes != 0 || st.Stages["program"].Evictions != 4 {
		t.Errorf("cache after two failed jobs: %+v", st)
	}
}

// TestRecencyKeepsHotCells: under a budget that holds a few jobs, a job
// requested between every new one stays resident while the new ones cycle
// through, and the resident total stays within the budget.
func TestRecencyKeepsHotCells(t *testing.T) {
	srcs := sourceJobs(24, 35_000)
	s := NewSuite(ScaleTest)
	s.Budget = 600 << 10 // about five source jobs
	if _, ran := mustServe(t, s, srcs[0], sim.InOrder); !ran {
		t.Fatal("first job was not computed")
	}
	for i, src := range srcs[1:] {
		mustServe(t, s, src, sim.InOrder)
		if _, ran := mustServe(t, s, srcs[0], sim.InOrder); ran {
			t.Fatalf("after %d other jobs the hot job was evicted", i+1)
		}
		if st := s.CacheStats(); st.Bytes > s.Budget {
			t.Fatalf("resident %d bytes over the %d budget", st.Bytes, s.Budget)
		}
	}
	if st := s.CacheStats(); st.Stages["run"].Evictions == 0 {
		t.Errorf("the budget never evicted a run cell: %+v", st)
	}
}

// TestSourceParsedOnce: the program stage takes the caller's parsed program
// instead of parsing the text again, and a resubmission of the same text
// hits the cell keyed by its hash.
func TestSourceParsedOnce(t *testing.T) {
	src := sourceJobs(1, 33_000)[0]
	p, err := ir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSuite(ScaleTest)
	if _, _, _, err := s.Served("", src, p, sim.InOrder, nil).Do(context.Background()); err != nil {
		t.Fatal(err)
	}
	r := newRequest("", src, sim.InOrder, nil)
	if c := s.progs.cells[r.prog]; c == nil || !c.Done() {
		t.Fatal("no program cell under the source's hash")
	} else if got, _ := c.Do(context.Background(), nil); got.orig != p {
		t.Error("the program stage parsed the source again instead of taking the parsed program")
	}
	if _, _, ran, _ := s.Served("", src, nil, sim.InOrder, nil).Do(context.Background()); ran {
		t.Error("a resubmitted source missed the cache")
	}
}

// TestTinyBudgetStillCoalesces: with a 1-byte budget every cell leaves as
// soon as nothing pins it, yet concurrent identical jobs still share one
// computation, and a run reuses the cells it computed on the way: the
// in-order baseline is the profiling run itself, simulated once.
func TestTinyBudgetStillCoalesces(t *testing.T) {
	for _, tc := range []struct {
		model   sim.Model
		opt     *ssp.Options
		simRuns int64
	}{
		{sim.InOrder, nil, 1}, // the profiling run is the cell
		{sim.OOO, func() *ssp.Options { o := ssp.DefaultOptions(); return &o }(), 2},
	} {
		s := NewSuite(ScaleTest)
		s.Budget = 1
		var sims atomic.Int64
		s.Progress = func(RunKey, *sim.Result, time.Duration) { sims.Add(1) }
		const burst = 8
		var wg sync.WaitGroup
		var ran atomic.Int64
		results := make([]*sim.Result, burst)
		// Every request takes its handle before any of them runs, as
		// requests that all arrive while the first is in flight do: a
		// request arriving after the cell completed and left would
		// rightly compute it again.
		handles := make([]Served, burst)
		for i := range handles {
			handles[i] = s.Served("mcf", "", nil, tc.model, tc.opt)
		}
		for i := range results {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, _, r, err := handles[i].Do(context.Background())
				if err != nil {
					t.Error(err)
				}
				if r {
					ran.Add(1)
				}
				results[i] = res
			}()
		}
		wg.Wait()
		if ran.Load() != 1 || sims.Load() != tc.simRuns || s.PoolStats().Gets != tc.simRuns {
			t.Errorf("%s: %d computations, %d simulations, pool %+v; want 1 and %d",
				tc.model, ran.Load(), sims.Load(), s.PoolStats(), tc.simRuns)
		}
		for _, res := range results[1:] {
			if res != results[0] {
				t.Errorf("%s: coalesced requests got different results", tc.model)
				break
			}
		}
	}
}

// TestEvictionRacesHits: requests over a few keys race a 1-byte budget that
// evicts every cell as soon as it completes; every answer stays the
// deterministic one (go test -race checks the cache's locking).
func TestEvictionRacesHits(t *testing.T) {
	srcs := sourceJobs(3, 34_000)
	ref := NewSuite(ScaleTest)
	want := make([]*sim.Result, len(srcs))
	for i, src := range srcs {
		want[i], _ = mustServe(t, ref, src, sim.InOrder)
	}
	s := NewSuite(ScaleTest)
	s.Budget = 1
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				k := (g + i) % len(srcs)
				got, _, err := serveSource(s, srcs[k], sim.InOrder)
				if err != nil {
					t.Error(err)
				} else if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("source %d: result differs from an uncontended run", k)
				}
				s.CacheStats()
				s.Cells()
			}
		}()
	}
	wg.Wait()
	if st := s.CacheStats(); st.Evictions == 0 {
		t.Errorf("no evictions under a 1-byte budget: %+v", st)
	}
}
