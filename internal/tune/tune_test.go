package tune

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/ssp"
)

func testTuner() *Tuner {
	return New(exp.NewSuite(exp.ScaleTest))
}

func TestTuneMcfQuickGrid(t *testing.T) {
	tn := testTuner()
	res, err := tn.Tune(context.Background(), "mcf", sim.InOrder, Params{MaxRounds: 2}, QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if res.Best == nil || len(res.Candidates) != len(QuickGrid()) {
		t.Fatalf("result shape: best=%v candidates=%d", res.Best, len(res.Candidates))
	}
	if res.BaseCycles <= 0 || res.OneShot <= 0 {
		t.Fatalf("base cycles %d, one-shot %v", res.BaseCycles, res.OneShot)
	}
	// The default configuration's round 0 IS the one-shot tool, so the
	// best-of-search can never fall below it.
	if res.Best.Best < res.OneShot {
		t.Fatalf("best %.3fx below one-shot %.3fx", res.Best.Best, res.OneShot)
	}
	for _, c := range res.Candidates {
		if c.Err != "" {
			t.Fatalf("candidate %s failed: %s", c.Label, c.Err)
		}
		if len(c.Rounds) == 0 || len(c.Rounds) > 3 { // one-shot + MaxRounds re-profiles
			t.Fatalf("candidate %s has %d rounds", c.Label, len(c.Rounds))
		}
		if c.Best <= 0 || c.BestRound < 0 || c.BestRound >= len(c.Rounds) {
			t.Fatalf("candidate %s best %.3f at round %d of %d", c.Label, c.Best, c.BestRound, len(c.Rounds))
		}
		// Targets accumulate monotonically: each round's set extends the
		// previous round's as a prefix.
		for i := 1; i < len(c.Rounds); i++ {
			prev, cur := c.Rounds[i-1].Targets, c.Rounds[i].Targets
			if len(cur) < len(prev) {
				t.Fatalf("candidate %s round %d dropped targets: %v -> %v", c.Label, i, prev, cur)
			}
			for j, id := range prev {
				if cur[j] != id {
					t.Fatalf("candidate %s round %d reordered targets: %v -> %v", c.Label, i, prev, cur)
				}
			}
			if len(c.Rounds[i].NewTargets) != len(cur)-len(prev) {
				t.Fatalf("candidate %s round %d new-target accounting: %v vs %v -> %v",
					c.Label, i, c.Rounds[i].NewTargets, prev, cur)
			}
		}
	}
}

func TestTuneMemoizesCandidates(t *testing.T) {
	tn := testTuner()
	ctx := context.Background()
	r1, err := tn.Tune(ctx, "treeadd.df", sim.InOrder, Params{MaxRounds: 2}, QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := tn.Tune(ctx, "treeadd.df", sim.InOrder, Params{MaxRounds: 2}, QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Candidates {
		if r1.Candidates[i] != r2.Candidates[i] {
			t.Fatalf("candidate %d recomputed instead of hitting its cell", i)
		}
	}
	// Different params must not share cells.
	r3, err := tn.Tune(ctx, "treeadd.df", sim.InOrder, Params{MaxRounds: 3}, QuickGrid())
	if err != nil {
		t.Fatal(err)
	}
	if r3.Candidates[0] == r1.Candidates[0] {
		t.Fatal("params-differing searches shared a candidate cell")
	}
}

// TestTuneSurfacesNewRegion drives the loop into the case the one-shot tool
// cannot see: with the region-hotness floor set between the two phases' miss
// shares, round 0 of rand.2p targets only the dominant phase. Once that
// phase's slice prefetches its misses away, the second phase dominates the
// residual profile, clears the floor, and a later round must grow the
// portfolio with its region.
func TestTuneSurfacesNewRegion(t *testing.T) {
	tn := testTuner()
	opt := ssp.DefaultOptions()
	opt.MinRegionMissFrac = 0.5
	grid := []GridPoint{{Label: "floor=0.5", Options: opt}}
	res, err := tn.Tune(context.Background(), "rand.2p", sim.InOrder, Params{MaxRounds: 2}, grid)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Candidates[0]
	if c.Err != "" {
		t.Fatalf("candidate failed: %s", c.Err)
	}
	r0 := c.Rounds[0]
	if len(r0.Regions) != 1 {
		t.Fatalf("round 0 covered regions %v, want the dominant phase only", r0.Regions)
	}
	if len(r0.NewRegions) != 0 {
		t.Fatalf("round 0 reported new regions %v; the field means newly surfaced, not initial", r0.NewRegions)
	}
	grew := false
	for _, r := range c.Rounds[1:] {
		if len(r.NewRegions) == 0 {
			continue
		}
		grew = true
		if r.Slices < 2 {
			t.Fatalf("round %d surfaced region %v but emitted %d slices", r.Round, r.NewRegions, r.Slices)
		}
		if len(r.Regions) < 2 {
			t.Fatalf("round %d regions %v inconsistent with new regions %v", r.Round, r.Regions, r.NewRegions)
		}
	}
	if !grew {
		t.Fatalf("no round surfaced a new region; rounds: %+v", c.Rounds)
	}
}

func TestTuneRejectsEmptyGrid(t *testing.T) {
	tn := testTuner()
	if _, err := tn.Tune(context.Background(), "mcf", sim.InOrder, Params{}, []GridPoint{}); err == nil {
		t.Fatal("empty grid accepted")
	}
}

func TestTuneUnknownBench(t *testing.T) {
	tn := testTuner()
	if _, err := tn.Tune(context.Background(), "nope", sim.InOrder, Params{}, QuickGrid()); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestCancelledTuneReturnsCtxErr(t *testing.T) {
	tn := testTuner()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := tn.Tune(ctx, "mcf", sim.InOrder, Params{}, QuickGrid()); err == nil {
		t.Fatal("cancelled tune succeeded")
	}
}

// TestTuneSimulatesEachImageOnce: the search's rounds resolve through the
// suite's content-keyed simulation cells, so a round image identical to one
// already simulated — an earlier round's, another grid point's, or a round
// 0 cell's — costs no simulation. Distinct images give distinct cycle
// counts on these workloads, so the suite must have run exactly one
// simulation per distinct round cycle count, plus the baseline.
func TestTuneSimulatesEachImageOnce(t *testing.T) {
	for _, bench := range []string{"mcf", "rand.2p"} {
		tn := testTuner()
		res, err := tn.Tune(context.Background(), bench, sim.InOrder, Params{MaxRounds: 3}, FullGrid())
		if err != nil {
			t.Fatal(err)
		}
		rounds, distinct := 0, map[int64]bool{}
		for _, c := range res.Candidates {
			for _, r := range c.Rounds {
				rounds++
				distinct[r.Cycles] = true
			}
		}
		sims := tn.Suite.PoolStats().Gets
		if want := int64(1 + len(distinct)); sims != want {
			t.Errorf("%s: %d rounds with %d distinct cycle counts ran %d simulations, want %d",
				bench, rounds, len(distinct), sims, want)
		}
	}
}

// TestTuneCountsAgainstWorkers: a search's simulations take the suite's
// Workers slots like every other run. While a spinning simulation holds the
// only slot of a Workers 1 suite, a search cannot start a machine, so it
// runs out its deadline without completing a simulation. Once the spinner
// is cancelled, the same search completes with a fresh suite's result.
func TestTuneCountsAgainstWorkers(t *testing.T) {
	s := exp.NewSuite(exp.ScaleTest)
	s.Workers = 1
	var sims atomic.Int64
	s.Progress = func(exp.RunKey, *sim.Result, time.Duration) { sims.Add(1) }
	tn := New(s)

	p := ir.NewProgram("main")
	ir.NewFunc(p, "main").Block("loop").Br("loop")
	spinCtx, stop := context.WithCancel(context.Background())
	defer stop()
	spun := make(chan error, 1)
	go func() {
		_, err := s.Simulate(spinCtx, "spin", sim.InOrder, p, 0)
		spun <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for s.PoolStats().Gets < 1 {
		if time.Now().After(deadline) {
			t.Fatal("the spinning simulation never took a machine")
		}
		time.Sleep(time.Millisecond)
	}

	search := func(ctx context.Context, tn *Tuner) (*Result, error) {
		return tn.Tune(ctx, "mcf", sim.InOrder, Params{MaxRounds: 2}, QuickGrid())
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := search(ctx, tn); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search behind a spinning simulation: err %v, want DeadlineExceeded", err)
	}
	if n := sims.Load(); n != 0 {
		t.Fatalf("search behind a spinning simulation completed %d simulations, want 0", n)
	}

	stop()
	if err := <-spun; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled spinner: err %v, want Canceled", err)
	}
	res, err := search(context.Background(), tn)
	if err != nil {
		t.Fatal(err)
	}
	want, err := search(context.Background(), testTuner())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	fresh, _ := json.Marshal(want)
	if !bytes.Equal(got, fresh) {
		t.Errorf("search after the spinner stopped diverged from a fresh suite's:\n got %s\nwant %s", got, fresh)
	}
}
