package ssp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/workloads"
)

// mcfTool builds the tool state for the mcf kernel at test scale.
func mcfTool(t *testing.T, opt Options) (*Tool, *ir.Func, []*ir.Instr) {
	t.Helper()
	spec, _ := workloads.ByName("mcf")
	orig, _ := spec.Build(spec.TestScale)
	prof, err := profile.Collect(orig, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := orig.Clone()
	tool := &Tool{
		p:          p,
		prof:       prof,
		opt:        opt,
		an:         map[string]*analysis{},
		callCycles: map[string]float64{},
		report:     &Report{},
	}
	if err := tool.analyse(); err != nil {
		t.Fatal(err)
	}
	f := p.FuncByName("main")
	var dels []*ir.Instr
	for _, id := range prof.DelinquentLoadsByRegion(opt.DelinquentCutoff, opt.MaxDelinquent, 0, func(int) string { return "" }) {
		_, _, in := p.InstrByID(id)
		dels = append(dels, in)
	}
	return tool, f, dels
}

func TestScheduleFigure5Partition(t *testing.T) {
	tool, f, dels := mcfTool(t, DefaultOptions())
	if len(dels) == 0 {
		t.Fatal("no delinquent loads")
	}
	region := tool.selectRegion(f, dels[0])
	if region == nil || region.Loop == nil {
		t.Fatalf("selected region %v, want the pricing loop", region)
	}
	sl, err := tool.buildSlice(region, dels)
	if err != nil || sl == nil {
		t.Fatalf("buildSlice: %v %v", sl, err)
	}
	sch := tool.schedule(sl)
	if sch.Model != ModelChaining {
		t.Fatalf("model = %v, want chaining", sch.Model)
	}
	// Figure 5: the critical sub-slice is the arc recurrence + spawn
	// condition (A, D, cmp) — small and load-free; the loads live in the
	// non-critical sub-slice.
	for _, n := range sch.Critical {
		if sl.Nodes[n].In.Op == ir.OpLd {
			t.Fatalf("load %v in the critical sub-slice", sl.Nodes[n].In)
		}
	}
	loads := 0
	for _, n := range sch.NonCritical {
		if sl.Nodes[n].In.Op == ir.OpLd {
			loads++
		}
	}
	if loads == 0 {
		t.Fatal("no loads in the non-critical sub-slice")
	}
	if sch.HCritical >= sch.HRegion/2 {
		t.Fatalf("critical height %.0f not far below region height %.0f", sch.HCritical, sch.HRegion)
	}
	if sch.RateCSP <= sch.RateBSP {
		t.Fatalf("chaining slack rate %.0f should beat basic %.0f on mcf", sch.RateCSP, sch.RateBSP)
	}
	// The delinquent potential loads have no consumers in the slice and
	// become prefetches.
	lfetches := 0
	for n := range sch.Lfetch {
		if !sl.Nodes[n].Target {
			t.Fatalf("non-target %v converted to lfetch", sl.Nodes[n].In)
		}
		lfetches++
	}
	if lfetches == 0 {
		t.Fatal("no delinquent load became a prefetch")
	}
}

func TestScheduleCriticalIsTopologicallyOrdered(t *testing.T) {
	tool, f, dels := mcfTool(t, DefaultOptions())
	region := tool.selectRegion(f, dels[0])
	sl, _ := tool.buildSlice(region, dels)
	sch := tool.schedule(sl)
	check := func(order []int) {
		pos := map[int]int{}
		for i, n := range order {
			pos[n] = i
		}
		for _, n := range order {
			for _, e := range sl.Preds[n] {
				if e.Carried || e.From == n {
					continue
				}
				if p, ok := pos[e.From]; ok && p > pos[n] {
					t.Fatalf("node %v scheduled before its producer %v",
						sl.Nodes[n].In, sl.Nodes[e.From].In)
				}
			}
		}
	}
	check(sch.Critical)
	check(sch.NonCritical)
}

func TestScheduleNoRotationKeepsProgramOrder(t *testing.T) {
	opt := DefaultOptions()
	opt.LoopRotation = false
	tool, f, dels := mcfTool(t, opt)
	region := tool.selectRegion(f, dels[0])
	sl, _ := tool.buildSlice(region, dels)
	sch := tool.schedule(sl)
	if len(sch.NonCritical) != 0 {
		t.Fatal("rotation-off schedule still splits the slice")
	}
	for i := 1; i < len(sch.Critical); i++ {
		if sl.Nodes[sch.Critical[i-1]].Order > sl.Nodes[sch.Critical[i]].Order {
			t.Fatal("rotation-off schedule is not in program order")
		}
	}
}

// TestQuickReducedPerEntry: property — the closed form matches a direct
// summation of min(missPerIter, slack(i)).
func TestQuickReducedPerEntry(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rate := float64(r.Intn(500)) - 50
		miss := float64(1 + r.Intn(400))
		trips := float64(1 + r.Intn(200))
		slackMax := float64(100 + r.Intn(100000))
		grows := r.Intn(2) == 0
		got := reducedPerEntry(rate, miss, trips, grows, slackMax)
		want := 0.0
		if rate > 0 {
			for i := 1; i <= int(trips); i++ {
				slack := rate
				if grows {
					slack = math.Min(rate*float64(i), slackMax)
				}
				want += math.Min(miss, slack)
			}
		}
		// The closed form integrates over a continuous i; allow a small
		// relative discrepancy against the discrete sum.
		diff := math.Abs(got - want)
		tol := 0.10*want + miss + rate
		if tol < 1 {
			tol = 1
		}
		if diff > tol {
			t.Logf("seed %d: rate=%v miss=%v trips=%v grows=%v got=%v want=%v",
				seed, rate, miss, trips, grows, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionItersMatchesProfile(t *testing.T) {
	tool, f, dels := mcfTool(t, DefaultOptions())
	region := tool.selectRegion(f, dels[0])
	iters, entries, trips := tool.regionIters(region)
	spec, _ := workloads.ByName("mcf")
	n := float64(spec.TestScale)
	if iters != n {
		t.Fatalf("iters = %v, want %v", iters, n)
	}
	if entries != 1 {
		t.Fatalf("entries = %v, want 1", entries)
	}
	if trips != n {
		t.Fatalf("trips = %v, want %v", trips, n)
	}
}

func TestTriggerPlacementAtLoopHeader(t *testing.T) {
	tool, f, dels := mcfTool(t, DefaultOptions())
	region := tool.selectRegion(f, dels[0])
	sl, _ := tool.buildSlice(region, dels)
	tp, ok := tool.placeTrigger(sl)
	if !ok {
		t.Fatal("no trigger point found")
	}
	if tp.block.Label != "loop" || tp.pos != 0 {
		t.Fatalf("trigger at %s:%d, want loop:0", tp.block.Label, tp.pos)
	}
}

func TestEmbedTriggerReplacesNop(t *testing.T) {
	tool, f, dels := mcfTool(t, DefaultOptions())
	region := tool.selectRegion(f, dels[0])
	sl, _ := tool.buildSlice(region, dels)
	tp, _ := tool.placeTrigger(sl)
	before := len(tp.block.Instrs)
	nopID := tp.block.Instrs[0].ID
	tool.embedTrigger(tp, "loop") // any resolvable label works for the test
	if len(tp.block.Instrs) != before {
		t.Fatal("trigger insertion grew the block despite an available nop")
	}
	if in := tp.block.Instrs[0]; in.Op != ir.OpChk || in.ID != nopID {
		t.Fatalf("nop not converted in place: %v", in)
	}
	// Second trigger: no nop left, must insert.
	tool.embedTrigger(tp, "loop")
	if len(tp.block.Instrs) != before+1 {
		t.Fatal("second trigger did not insert a new instruction")
	}
	_ = f
}

func TestLiveInsAvailableRespectsDominance(t *testing.T) {
	// A live-in defined only on one side of a diamond must not be
	// considered available at the join's sibling.
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.CmpI(ir.CondLT, 6, 7, 14, 10)
	e.On(6).Br("right")
	left := fb.Block("left")
	left.MovI(30, 5) // defines r30 only here
	left.Br("join")
	right := fb.Block("right")
	right.Nop()
	join := fb.Block("join")
	join.Ld(31, 30, 0)
	join.Halt()

	prof := &profile.Profile{InstrFreq: map[int]uint64{}, BlockFreq: map[string]uint64{}}
	tool := &Tool{p: p, prof: prof, opt: DefaultOptions(), an: map[string]*analysis{}, callCycles: map[string]float64{}, report: &Report{}}
	if err := tool.analyse(); err != nil {
		t.Fatal(err)
	}
	f := p.FuncByName("main")
	sl := &Slice{Region: tool.an["main"].fr.Proc, LiveIns: []ir.Reg{30}, Funcs: map[string]bool{"main": true}}
	sl.Region.F = f
	if tool.liveInsAvailable(sl, f.BlockByLabel("right")) {
		t.Fatal("r30 reported available in a block its def does not dominate")
	}
	if !tool.liveInsAvailable(sl, f.BlockByLabel("left")) {
		t.Fatal("r30 not available in its defining block")
	}
}
