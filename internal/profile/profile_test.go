package profile

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/sim/mem"
	"ssp/internal/workloads"
)

func tinyConfig() sim.Config {
	c := sim.DefaultInOrder()
	c.Mem.L1Size = 1 << 10
	c.Mem.L2Size = 4 << 10
	c.Mem.L3Size = 16 << 10
	return c
}

// loopProgram: an outer loop of n iterations around an inner loop of m
// iterations, with a delinquent strided load in the inner loop.
func loopProgram(n, m int) *ir.Program {
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0)        // i
	e.MovI(20, 0x100000) // cursor
	outer := fb.Block("outer")
	outer.MovI(15, 0) // j
	inner := fb.Block("inner")
	inner.Ld(16, 20, 0)
	inner.AddI(20, 20, 64)
	inner.AddI(15, 15, 1)
	inner.CmpI(ir.CondLT, 6, 7, 15, int64(m))
	inner.On(6).Br("inner")
	latch := fb.Block("latch")
	latch.AddI(14, 14, 1)
	latch.CmpI(ir.CondLT, 8, 9, 14, int64(n))
	latch.On(8).Br("outer")
	done := fb.Block("done")
	done.Halt()
	return p
}

func TestCollectBlockAndInstrFreq(t *testing.T) {
	p := loopProgram(10, 20)
	pr, err := Collect(p, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.BlockCount("main", "entry"); got != 1 {
		t.Errorf("entry count = %d", got)
	}
	if got := pr.BlockCount("main", "outer"); got != 10 {
		t.Errorf("outer count = %d", got)
	}
	if got := pr.BlockCount("main", "inner"); got != 200 {
		t.Errorf("inner count = %d", got)
	}
	ld := p.Funcs[0].Blocks[2].Instrs[0]
	if got := pr.Freq(ld); got != 200 {
		t.Errorf("load executed %d times", got)
	}
}

func TestLoopTripCount(t *testing.T) {
	p := loopProgram(10, 20)
	pr, err := Collect(p, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	// inner loop: 200 header executions over 10 entries -> 20 trips.
	if got := pr.LoopTripCount("main.inner", 10); got != 20 {
		t.Errorf("inner trips = %v", got)
	}
	if got := pr.LoopTripCount("main.outer", 1); got != 10 {
		t.Errorf("outer trips = %v", got)
	}
	if got := pr.LoopTripCount("main.inner", 0); got != 200 {
		t.Errorf("trips with unknown entries = %v", got)
	}
	if got := pr.LoopTripCount("main.nosuch", 5); got != 1 {
		t.Errorf("unknown header trips = %v", got)
	}
}

func TestDelinquentLoadsOrderingAndCutoff(t *testing.T) {
	p := loopProgram(4, 500)
	pr, err := Collect(p, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	dels := pr.DelinquentLoadsByRegion(0.9, 10, 0, oneRegion)
	if len(dels) != 1 {
		t.Fatalf("dels = %v, want the single strided load", dels)
	}
	// max <= 0 means no cap, not "select nothing".
	if got := pr.DelinquentLoadsByRegion(0.9, 0, 0, oneRegion); len(got) != 1 {
		t.Errorf("max=0 returned %v, want the single strided load", got)
	}
}

func synthProfile(miss map[int]uint64) *Profile {
	pr := &Profile{Loads: make(map[int]*mem.LoadStat)}
	for id, mc := range miss {
		pr.Loads[id] = &mem.LoadStat{Accesses: 1, MissCycles: mc}
		pr.TotalMissCycles += mc
	}
	return pr
}

// oneRegion puts every load in one region: DelinquentLoadsByRegion with it
// (and minFrac 0) is the global ranking.
func oneRegion(int) string { return "" }

// TestDelinquentLoadsBoundaries pins the cutoff/max selection on the global
// ranking, the per-region ranking over a single region.
func TestDelinquentLoadsBoundaries(t *testing.T) {
	cases := []struct {
		name   string
		miss   map[int]uint64
		cutoff float64
		max    int
		want   []int
	}{
		// Truncation boundary: total 95, cutoff 0.9 → true target 85.5.
		// The old integer-truncated target (85) stopped after the first
		// load at 85/95 ≈ 89.5% — below the "at least 90%" contract.
		{"rounding-boundary", map[int]uint64{1: 85, 2: 10}, 0.9, 10, []int{1, 2}},
		// Exact hit: 90/100 is at least 90%; stop there.
		{"exact", map[int]uint64{1: 90, 2: 10}, 0.9, 10, []int{1}},
		// cutoff >= 1.0 selects every missing load.
		{"cutoff-one", map[int]uint64{1: 70, 2: 20, 3: 10}, 1.0, 10, []int{1, 2, 3}},
		{"cutoff-above-one", map[int]uint64{1: 70, 2: 20, 3: 10}, 1.5, 10, []int{1, 2, 3}},
		// cutoff <= 0 still returns the top load (never an empty set
		// while misses exist).
		{"cutoff-zero", map[int]uint64{1: 70, 2: 30}, 0, 10, []int{1}},
		// max <= 0 means uncapped.
		{"max-zero-uncapped", map[int]uint64{1: 50, 2: 30, 3: 20}, 1.0, 0, []int{1, 2, 3}},
		{"max-negative-uncapped", map[int]uint64{1: 50, 2: 30, 3: 20}, 1.0, -1, []int{1, 2, 3}},
		// A positive max still caps.
		{"max-caps", map[int]uint64{1: 50, 2: 30, 3: 20}, 1.0, 2, []int{1, 2}},
		// Ranking: miss cycles descending, ID ascending on ties.
		{"tie-by-id", map[int]uint64{9: 40, 3: 40, 5: 20}, 1.0, 10, []int{3, 9, 5}},
		// Zero-miss loads never qualify; empty profile yields nil.
		{"skips-zero-miss", map[int]uint64{1: 10, 2: 0}, 1.0, 10, []int{1}},
		{"empty", map[int]uint64{}, 0.9, 10, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := idsString(synthProfile(tc.miss).DelinquentLoadsByRegion(tc.cutoff, tc.max, 0, oneRegion))
			want := idsString(tc.want)
			if got != want {
				t.Errorf("DelinquentLoadsByRegion(%v, %d) over one region = %s, want %s", tc.cutoff, tc.max, got, want)
			}
		})
	}
}

func idsString(ids []int) string { return fmt.Sprint(ids) }

// TestFromResult: the profile derived from a profiled run on a pooled,
// Reset-reused machine with fast-forward on — how the experiment suite takes
// its baseline — deep-equals Collect's profile from a fresh machine, for
// every test-scale benchmark.
func TestFromResult(t *testing.T) {
	cfg := sim.DefaultInOrder()
	cfg.UseTinyMem()
	cfg.FastForward = true
	var pool sim.Pool
	for _, spec := range workloads.All() {
		p, _ := spec.Build(spec.TestScale)
		want, err := Collect(p, cfg)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		img, err := ir.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		run := cfg
		run.Profile = true
		m := pool.Get(run, sim.Predecode(img))
		res, err := m.Run()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		pool.Put(m)
		if got := FromResult(p, img, cfg.Mem, res); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: FromResult differs from Collect", spec.Name)
		}
	}
}

// TestCollectRejectsMainKill: a program whose main thread executes kill never
// finished, so it has no profile: Collect returns the run rule's error,
// naming the kill, on both models. A watchdog expiry fails the same way.
func TestCollectRejectsMainKill(t *testing.T) {
	p := ir.NewProgram("main")
	e := ir.NewFunc(p, "main").Block("entry")
	e.MovI(20, 5)
	e.Kill()
	for _, cfg := range []sim.Config{tinyConfig(), sim.DefaultOOO()} {
		pr, err := Collect(p, cfg)
		if re := (*sim.RunError)(nil); !errors.As(err, &re) || re.Reason != "main-kill" || pr != nil {
			t.Errorf("%v: Collect = %v, %v; want no profile and a main-kill RunError", cfg.Model, pr, err)
		}
	}
	cfg := tinyConfig()
	cfg.MaxCycles = 50
	if pr, err := Collect(loopProgram(4, 500), cfg); err == nil || pr != nil {
		t.Errorf("watchdog: Collect = %v, %v; want no profile and an error", pr, err)
	}
}

func TestRebaseRestrictsToProgramLoads(t *testing.T) {
	p := loopProgram(4, 500)
	cfg := tinyConfig()
	pr, err := Collect(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(cfg, img).Run()
	if err != nil {
		t.Fatal(err)
	}
	rb := pr.Rebase(res, p)
	if len(rb.Loads) == 0 || rb.TotalMissCycles == 0 {
		t.Fatalf("rebased profile empty: %d loads, %d miss cycles", len(rb.Loads), rb.TotalMissCycles)
	}
	var sum uint64
	for id, s := range rb.Loads {
		if _, _, in := p.InstrByID(id); in == nil || in.Op != ir.OpLd {
			t.Errorf("rebased profile holds non-load ID %d", id)
		}
		sum += s.MissCycles
	}
	if sum != rb.TotalMissCycles {
		t.Errorf("TotalMissCycles %d != sum %d", rb.TotalMissCycles, sum)
	}
	// Same program, same config: the harvest must agree with Collect's own
	// cache profile, and the carried-over frequency maps are shared.
	if rb.TotalMissCycles != pr.TotalMissCycles {
		t.Errorf("rebased total %d != collected total %d", rb.TotalMissCycles, pr.TotalMissCycles)
	}
	if len(rb.InstrFreq) != len(pr.InstrFreq) || len(rb.BlockFreq) != len(pr.BlockFreq) {
		t.Error("frequency maps not carried over")
	}
	if rb.Cycles != res.Cycles {
		t.Errorf("rebased Cycles %d != run cycles %d", rb.Cycles, res.Cycles)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	p := loopProgram(5, 50)
	pr, err := Collect(p, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != pr.Cycles || got.TotalMissCycles != pr.TotalMissCycles {
		t.Fatalf("round trip changed totals: %+v vs %+v", got.Cycles, pr.Cycles)
	}
	if len(got.Loads) != len(pr.Loads) || len(got.BlockFreq) != len(pr.BlockFreq) {
		t.Fatal("round trip dropped entries")
	}
	for id, s := range pr.Loads {
		g := got.Loads[id]
		if g == nil || g.MissCycles != s.MissCycles || g.Accesses != s.Accesses {
			t.Fatalf("load %d stats changed", id)
		}
	}
	d1 := pr.DelinquentLoadsByRegion(0.9, 10, 0, oneRegion)
	d2 := got.DelinquentLoadsByRegion(0.9, 10, 0, oneRegion)
	if len(d1) != len(d2) || (len(d1) > 0 && d1[0] != d2[0]) {
		t.Fatalf("delinquent sets differ: %v vs %v", d1, d2)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{nope")); err == nil {
		t.Fatal("Load accepted malformed JSON")
	}
}

func TestLoadFillsNilMaps(t *testing.T) {
	pr, err := Load(bytes.NewBufferString("{}"))
	if err != nil {
		t.Fatal(err)
	}
	if pr.InstrFreq == nil || pr.BlockFreq == nil || pr.Loads == nil || pr.CallEdges == nil {
		t.Fatal("Load left nil maps")
	}
}

func TestDominantCalleeDeterminism(t *testing.T) {
	pr := &Profile{CallEdges: map[int]map[string]uint64{
		7: {"b": 5, "a": 5, "c": 3},
	}}
	// Equal counts: the lexicographically first name wins, deterministically.
	for i := 0; i < 10; i++ {
		if got := pr.DominantCallee(7); got != "a" {
			t.Fatalf("DominantCallee = %q", got)
		}
	}
	if got := pr.DominantCallee(99); got != "" {
		t.Fatalf("unknown call site callee = %q", got)
	}
}

func TestProfileIDsSurviveAsmRoundTrip(t *testing.T) {
	// IDs are assigned in textual order on Parse, so a profile collected
	// against a parsed program applies to a re-parse of the same text —
	// the property the sspprof/sspgen file pipeline relies on.
	p := loopProgram(5, 50)
	text := ir.Format(p)
	p1, err := ir.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ir.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	pr, err := Collect(p1, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range pr.DelinquentLoadsByRegion(0.9, 10, 0, oneRegion) {
		_, _, in1 := p1.InstrByID(id)
		_, _, in2 := p2.InstrByID(id)
		if in1 == nil || in2 == nil || in1.String() != in2.String() {
			t.Fatalf("ID %d resolves differently across parses: %v vs %v", id, in1, in2)
		}
	}
}
