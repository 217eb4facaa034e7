package exp

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ssp/internal/check"
	"ssp/internal/sim"
	"ssp/internal/ssp"
)

// suite is shared by all tests in this package: the cached runs make the
// whole file cost roughly one pass over the benchmarks per model/variant.
var suite = NewSuite(ScaleTest)

func TestFigure2Shape(t *testing.T) {
	rows, err := suite.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("got %d rows", len(rows))
	}
	covered := 0
	var delIO, delOOO []float64
	for _, r := range rows {
		t.Logf("%-11s io: mem %.1f del %.1f   ooo: mem %.1f del %.1f",
			r.Bench, r.PerfMemIO, r.PerfDelIO, r.PerfMemOOO, r.PerfDelOOO)
		// Perfect memory is a speedup; the delinquent-only bound cannot
		// exceed perfect memory (same for OOO).
		if r.PerfMemIO < 1.2 {
			t.Errorf("%s: perfect-memory in-order speedup %.2f too small — not memory bound", r.Bench, r.PerfMemIO)
		}
		if r.PerfDelIO > r.PerfMemIO*1.02 {
			t.Errorf("%s: delinquent-only bound %.2f exceeds perfect memory %.2f", r.Bench, r.PerfDelIO, r.PerfMemIO)
		}
		// "In most cases, eliminating performance losses from only the
		// delinquent loads yields much of the speedup achievable by
		// zero-miss-latency memory" (§2.2) — require it for most.
		if r.PerfDelIO >= 1.0+(r.PerfMemIO-1.0)*0.4 {
			covered++
		}
		delIO = append(delIO, r.PerfDelIO)
		delOOO = append(delOOO, r.PerfDelOOO)
	}
	if covered < 5 {
		t.Errorf("delinquent loads cover much of perfect memory on only %d/7 benchmarks", covered)
	}
	// "the OOO model has less room for improvement via SSP" (§2.2): on
	// average, the delinquent-load bound relative to its own baseline is
	// smaller on OOO.
	if Mean(delOOO) > Mean(delIO)*1.1 {
		t.Errorf("OOO delinquent headroom %.2f exceeds in-order %.2f", Mean(delOOO), Mean(delIO))
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := suite.Table2()
	if err != nil {
		t.Fatal(err)
	}
	interproc := 0
	for _, r := range rows {
		if r.Slices == 0 {
			t.Errorf("%s: no slices", r.Bench)
		}
		if r.AvgSize > 48 {
			t.Errorf("%s: average slice size %.1f too large", r.Bench, r.AvgSize)
		}
		// "the average number of live-in values for the slices ... is
		// relatively small" (§4.2, Table 2 max is 4.8).
		if r.AvgLiveIns > 8 {
			t.Errorf("%s: average live-ins %.1f too large", r.Bench, r.AvgLiveIns)
		}
		interproc += r.Interproc
		if (r.Bench == "health" || r.Bench == "mst") && r.Interproc == 0 {
			t.Errorf("%s: expected an interprocedural slice", r.Bench)
		}
	}
	if interproc == 0 {
		t.Error("no interprocedural slices anywhere")
	}
}

func TestFigure8Shape(t *testing.T) {
	rows, err := suite.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	var ioSSP, ooo, oooSSP []float64
	for _, r := range rows {
		ioSSP = append(ioSSP, r.InOrderSSP)
		ooo = append(ooo, r.OOO)
		oooSSP = append(oooSSP, r.OOOSSP)
		t.Logf("%-11s io+ssp %.2f  ooo %.2f  ooo+ssp %.2f", r.Bench, r.InOrderSSP, r.OOO, r.OOOSSP)
	}
	// §4.3's shape: SSP is a clear average win on in-order; OOO beats the
	// in-order baseline; SSP on OOO is a small additional win on average.
	if m := Mean(ioSSP); m < 1.3 {
		t.Errorf("average in-order SSP speedup %.2f; the paper's shape needs a large win", m)
	}
	if m := Mean(ooo); m < 1.3 {
		t.Errorf("average OOO speedup %.2f over in-order too small", m)
	}
	// SSP on OOO is roughly neutral (the paper reports +5% on average;
	// our reproduction lands between -5% and +10% depending on scale —
	// the interference effects §4.4.1 describes are real).
	ratio := Mean(oooSSP) / Mean(ooo)
	if ratio < 0.90 || ratio > 1.25 {
		t.Errorf("SSP on OOO should be roughly neutral, got ratio %.3f", ratio)
	}
}

func TestFigure9Shape(t *testing.T) {
	rows, err := suite.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	improved := 0
	for _, r := range rows {
		if len(r.Configs) != 4 {
			t.Fatalf("%s: %d configs", r.Bench, len(r.Configs))
		}
		io, ioSSP := r.Configs[0], r.Configs[1]
		// Shares sum to ~1 where misses exist.
		for _, c := range r.Configs {
			sum := 0.0
			for _, v := range c.Share {
				sum += v
			}
			if len(c.Share) > 0 && (sum < 0.99 || sum > 1.01) {
				t.Errorf("%s/%s: shares sum to %.3f", r.Bench, c.Label, sum)
			}
		}
		// SSP moves delinquent misses away from full memory hits: the
		// "Mem" share drops or partial share grows (§4.4).
		if ioSSP.Share["Mem"] < io.Share["Mem"]-1e-9 ||
			ioSSP.Share["Mem partial"] > io.Share["Mem partial"] {
			improved++
		}
	}
	if improved < 4 {
		t.Errorf("SSP shifted the delinquent-load satisfaction mix on only %d/7 benchmarks", improved)
	}
}

func TestFigure10Shape(t *testing.T) {
	rows, err := suite.Figure10()
	if err != nil {
		t.Fatal(err)
	}
	reducedL3 := 0
	for _, r := range rows {
		io, ioSSP := r.Configs[0], r.Configs[1]
		if io.Total < 0.999 || io.Total > 1.001 {
			t.Errorf("%s: baseline bar is %.3f, want 1.0", r.Bench, io.Total)
		}
		// Bars decompose exactly.
		for _, c := range r.Configs {
			sum := 0.0
			for _, v := range c.Norm {
				sum += v
			}
			if sum < c.Total-0.001 || sum > c.Total+0.001 {
				t.Errorf("%s/%s: categories sum to %.3f, bar is %.3f", r.Bench, c.Label, sum, c.Total)
			}
		}
		// "SSP effectively reduces the L3 cycles, which is the main
		// reason for the 87%% speedup on the in-order processor" (§4.4.1).
		if ioSSP.Norm[sim.CatL3] < io.Norm[sim.CatL3] {
			reducedL3++
		}
	}
	if reducedL3 < 5 {
		t.Errorf("SSP reduced L3 stall cycles on only %d/7 benchmarks", reducedL3)
	}
}

func TestSection45Shape(t *testing.T) {
	rows, err := suite.Section45()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		t.Logf("%s/%s: auto %.2f hand %.2f loss %.0f%%", r.Bench, r.Model, r.AutoSpeedup, r.HandSpeedup, r.LossPct)
		if r.Model == "in-order" && r.HandSpeedup < r.AutoSpeedup*0.98 {
			t.Errorf("%s/%s: hand adaptation (%.2f) lost to the tool (%.2f)", r.Bench, r.Model, r.HandSpeedup, r.AutoSpeedup)
		}
	}
}

func TestAblationsShape(t *testing.T) {
	rows, err := suite.Ablations([]string{"mcf", "em3d"})
	if err != nil {
		t.Fatal(err)
	}
	sp := map[string]map[Variant]float64{}
	for _, r := range rows {
		if sp[r.Bench] == nil {
			sp[r.Bench] = map[Variant]float64{}
		}
		sp[r.Bench][r.Variant] = r.Speedup
	}
	for b, m := range sp {
		// Chaining is the key to long-range prefetching (§1): disabling
		// it should not beat the full tool on the chaining benchmarks.
		if m[VarNoChain] > m[VarSSP]*1.05 {
			t.Errorf("%s: no-chaining (%.2f) beats chaining (%.2f)", b, m[VarNoChain], m[VarSSP])
		}
		for v, s := range m {
			if s < 0.90 {
				t.Errorf("%s/%s: ablation slows the program down (%.2f)", b, v, s)
			}
		}
	}
}

func TestFormatTable(t *testing.T) {
	out := FormatTable([]string{"a", "bench"}, [][]string{{"1", "x"}, {"22", "yyyy"}})
	if !strings.Contains(out, "a   bench") || !strings.Contains(out, "22  yyyy") {
		t.Fatalf("bad table:\n%s", out)
	}
}

func TestMeans(t *testing.T) {
	if m := Mean([]float64{1, 2, 3}); m != 2 {
		t.Fatalf("Mean = %v", m)
	}
	if g := GeoMean([]float64{1, 4}); g != 2 {
		t.Fatalf("GeoMean = %v", g)
	}
	if Mean(nil) != 0 || GeoMean(nil) != 0 {
		t.Fatal("empty means should be 0")
	}
}

// TestParseScale: both scale names parse and round-trip through String, and
// a typo is an error that lists the valid names.
func TestParseScale(t *testing.T) {
	for _, want := range []Scale{ScalePaper, ScaleTest} {
		if sc, err := ParseScale(want.String()); err != nil || sc != want {
			t.Fatalf("%s: %v %v", want, sc, err)
		}
	}
	if _, err := ParseScale("tset"); err == nil {
		t.Fatal("accepted a typoed scale")
	} else if !strings.Contains(err.Error(), "paper") {
		t.Fatalf("error does not list valid scales: %v", err)
	}
}

func TestSuiteCachesRuns(t *testing.T) {
	s := NewSuite(ScaleTest)
	r1, err := s.Run("mcf", sim.InOrder, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := s.Run("mcf", sim.InOrder, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("suite did not cache the run")
	}
	if _, err := s.Run("mcf", sim.InOrder, Variant("bogus")); err == nil {
		t.Fatal("suite accepted an unknown variant")
	}
}

func TestSuiteChecksumGuard(t *testing.T) {
	// Every cached run was checksum-verified on the way in; spot-check
	// that a speedup query works end to end for an adapted variant.
	s := NewSuite(ScaleTest)
	sp, err := s.Speedup("vpr", sim.InOrder, VarBase, sim.InOrder, VarSSP)
	if err != nil {
		t.Fatal(err)
	}
	if sp <= 0 {
		t.Fatalf("speedup = %v", sp)
	}
}

// TestOptionsCellsNeverSharedAcrossConfigs is the poisoning regression for
// the options-keyed memoization: two configurations that differ only in
// ChainUnroll must get distinct cells (distinct adapted binaries, distinct
// results), while re-asking with an identical configuration must hit the
// first configuration's cache, not the second's.
func TestOptionsCellsNeverSharedAcrossConfigs(t *testing.T) {
	s := NewSuite(ScaleTest)
	ctx := context.Background()
	a := ssp.DefaultOptions()
	b := a
	b.ChainUnroll = 2

	if a.Key() == b.Key() {
		t.Fatal("option keys collide across ChainUnroll values")
	}
	progA, repA, err := s.ProgramOptions(ctx, "mcf", a)
	if err != nil {
		t.Fatal(err)
	}
	progB, repB, err := s.ProgramOptions(ctx, "mcf", b)
	if err != nil {
		t.Fatal(err)
	}
	if progA == progB || repA == repB {
		t.Fatal("ChainUnroll-differing configs shared an adaptation cell")
	}
	resA, err := s.RunOptions(ctx, "mcf", sim.InOrder, a)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := s.RunOptions(ctx, "mcf", sim.InOrder, b)
	if err != nil {
		t.Fatal(err)
	}
	if resA == resB {
		t.Fatal("ChainUnroll-differing configs shared a run cell")
	}
	// Same config again: must be the cached pointer from the FIRST config,
	// proving the second probe didn't overwrite it.
	resA2, err := s.RunOptions(ctx, "mcf", sim.InOrder, a)
	if err != nil {
		t.Fatal(err)
	}
	if resA2 != resA {
		t.Fatal("identical config missed its own cache after a different config ran")
	}
	// And the options-keyed ssp cell agrees with the enum-variant ssp cell,
	// which runs the same default adaptation through the legacy key space.
	legacy, err := s.Run("mcf", sim.InOrder, VarSSP)
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Cycles != resA.Cycles {
		t.Fatalf("options-keyed default run (%d cycles) disagrees with VarSSP cell (%d cycles)", resA.Cycles, legacy.Cycles)
	}
}

// TestPresetIsOptionsCell: a named variant is a preset onto the options-keyed
// pipeline, not a second cache — VarSSP and the default options resolve to
// one run cell (one simulation, one Progress line, one *sim.Result) and one
// binary cell (one report). The only other simulation is the program
// stage's profiling run, narrated as the in-order baseline cell it is.
func TestPresetIsOptionsCell(t *testing.T) {
	s := NewSuite(ScaleTest)
	ctx := context.Background()
	var narrated []RunKey // both calls run on this goroutine
	s.Progress = func(k RunKey, _ *sim.Result, _ time.Duration) { narrated = append(narrated, k) }
	preset, err := s.Run("mcf", sim.InOrder, VarSSP)
	if err != nil {
		t.Fatal(err)
	}
	viaOpts, err := s.RunOptions(ctx, "mcf", sim.InOrder, ssp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if preset != viaOpts {
		t.Fatal("VarSSP and RunOptions(DefaultOptions) returned different results")
	}
	if want := []RunKey{{"mcf", sim.InOrder, VarBase}, {"mcf", sim.InOrder, VarSSP}}; !reflect.DeepEqual(narrated, want) {
		t.Fatalf("Progress fired for %v, want once each for %v", narrated, want)
	}
	rep, err := s.Report("mcf", VarSSP)
	if err != nil {
		t.Fatal(err)
	}
	_, optRep, err := s.ProgramOptions(ctx, "mcf", ssp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep != optRep {
		t.Fatal("Report(VarSSP) and ProgramOptions(DefaultOptions) returned different reports")
	}
	if n := s.Cells(); n != 1 {
		t.Fatalf("suite holds %d run cells, want 1", n)
	}
}

// TestSimulateSharesImageCells: the simulation stage is keyed by what runs,
// not by who asks. A copy of a binary the suite already ran comes back from
// Simulate as that run cell's own result without a new simulation; another
// model is another cell, and concurrent identical calls coalesce onto one
// simulation; a different answer check never reuses the cached success.
func TestSimulateSharesImageCells(t *testing.T) {
	s := NewSuite(ScaleTest)
	ctx := context.Background()
	var mu sync.Mutex
	var narrated []RunKey
	s.Progress = func(k RunKey, _ *sim.Result, _ time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		narrated = append(narrated, k)
	}
	opt := ssp.DefaultOptions()
	res, err := s.RunOptions(ctx, "mcf", sim.InOrder, opt)
	if err != nil {
		t.Fatal(err)
	}
	prog, _, err := s.ProgramOptions(ctx, "mcf", opt)
	if err != nil {
		t.Fatal(err)
	}
	_, want, _, _, err := s.Original(ctx, "mcf", "")
	if err != nil {
		t.Fatal(err)
	}
	gets := s.PoolStats().Gets
	got, err := s.Simulate(ctx, "copy", sim.InOrder, prog.Clone(), want)
	if err != nil {
		t.Fatal(err)
	}
	if got != res {
		t.Fatal("Simulate of the run cell's image returned a different result")
	}
	if n := s.PoolStats().Gets - gets; n != 0 {
		t.Fatalf("Simulate of an already simulated image ran %d simulations", n)
	}

	const callers = 6
	results := make([]*sim.Result, callers)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := s.Simulate(ctx, "copy", sim.OOO, prog.Clone(), want)
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	for _, r := range results {
		if r == nil || r != results[0] || r == res {
			t.Fatal("concurrent Simulate calls on a new model did not share one fresh cell")
		}
	}
	if n := s.PoolStats().Gets - gets; n != 1 {
		t.Fatalf("%d concurrent identical Simulate calls ran %d simulations, want 1", callers, n)
	}

	if _, err := s.Simulate(ctx, "wrong-answer", sim.InOrder, prog.Clone(), want+1); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("a different answer check reused the cached success: err = %v", err)
	}
	// One narration per simulation: the profiling run (the baseline cell),
	// the RunOptions cell's, and the OOO one.
	if len(narrated) != 3 || narrated[0] != (RunKey{"mcf", sim.InOrder, VarBase}) || narrated[2] != (RunKey{"copy", sim.OOO, "external"}) {
		t.Fatalf("Progress fired for %v, want once per simulation", narrated)
	}
}

// TestServedProgressCounter: a served request that computes its cell
// publishes the simulation's clock, which ends at the Result's cycle count;
// a second request on the handle is a hit on the same Result; and observing
// the run changes nothing in it — it equals the same key run on a fresh
// suite, where no observer is attached.
func TestServedProgressCounter(t *testing.T) {
	ctx := context.Background()
	opt := ssp.DefaultOptions()
	for _, tc := range []struct {
		model sim.Model
		opt   *ssp.Options
	}{
		{sim.OOO, nil},
		{sim.InOrder, &opt},
	} {
		s := NewSuite(ScaleTest)
		h := s.Served("mcf", "", nil, tc.model, tc.opt)
		res, _, ran, err := h.Do(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !ran || h.Cycles() != res.Cycles || res.Cycles == 0 {
			t.Fatalf("%s: computed %v, progress counter %d, result %d cycles", tc.model, ran, h.Cycles(), res.Cycles)
		}
		again, _, ran, err := h.Do(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if ran || again != res {
			t.Fatalf("%s: second request computed %v, same result %v", tc.model, ran, again == res)
		}
		var want *sim.Result
		if tc.opt == nil {
			want, err = NewSuite(ScaleTest).RunContext(ctx, "mcf", tc.model, VarBase)
		} else {
			want, err = NewSuite(ScaleTest).RunOptions(ctx, "mcf", tc.model, *tc.opt)
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := check.SameTiming(res, want); err != nil {
			t.Fatalf("%s: observed run vs unobserved: %v", tc.model, err)
		}
	}
}
