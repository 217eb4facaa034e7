package dep

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"ssp/internal/cfg"
	"ssp/internal/ir"
)

// figure3 builds the paper's running example (mcf's primal_bea_mpp loop):
//
//	loop: A: mov  r16 = r14        ; t = arc
//	      B: ld8  r17 = [r16+8]    ; u = load(t->tail)
//	      C: ld8  r18 = [r17+16]   ; load(u->potential)   <- delinquent
//	      D: add  r14 = r16, 64    ; arc = t + nr_group
//	      E: cmp.lt p6,p7 = r14, r15
//	         (p6) br loop
func figure3() (*ir.Program, *ir.Func, []*ir.Instr) {
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0x10000)
	e.MovI(15, 0x20000)
	loop := fb.Block("loop")
	a := loop.Mov(16, 14)
	b := loop.Ld(17, 16, 8)
	c := loop.Ld(18, 17, 16)
	d := loop.AddI(14, 16, 64)
	cmp := loop.Cmp(ir.CondLT, 6, 7, 14, 15)
	br := loop.On(6).Br("loop")
	done := fb.Block("done")
	done.Halt()
	return p, fb.F, []*ir.Instr{a, b, c, d, cmp, br}
}

func buildGraph(t *testing.T, p *ir.Program, f *ir.Func) *Graph {
	t.Helper()
	g, err := cfg.Build(f)
	if err != nil {
		t.Fatal(err)
	}
	return Build(p, f, g, cfg.Dominators(g), cfg.Postdominators(g))
}

func hasEdge(dg *Graph, from, to *ir.Instr, carried bool) bool {
	f, u := dg.NodeByID(from.ID), dg.NodeByID(to.ID)
	for _, e := range dg.DataPreds[u] {
		if e.From == f && e.Carried == carried {
			return true
		}
	}
	return false
}

func TestFigure3DataDeps(t *testing.T) {
	p, f, ins := figure3()
	a, b, c, d, cmp, br := ins[0], ins[1], ins[2], ins[3], ins[4], ins[5]
	dg := buildGraph(t, p, f)

	// Intra-iteration chain: A->B->C, A->D, D->cmp, cmp->br.
	for _, e := range []struct{ from, to *ir.Instr }{
		{a, b}, {b, c}, {a, d}, {d, cmp}, {cmp, br},
	} {
		if !hasEdge(dg, e.from, e.to, false) {
			t.Errorf("missing forward edge %v -> %v", e.from, e.to)
		}
	}
	// Loop-carried recurrence: D (arc = t+nr_group) -> A (t = arc) of the
	// next iteration.
	if !hasEdge(dg, d, a, true) {
		t.Error("missing loop-carried edge D -> A")
	}
	// No false loop-carried dependences: B and C carry nothing ("Note that
	// there are no false loop-carried dependences in this figure").
	for n := range dg.Nodes {
		for _, e := range dg.DataPreds[n] {
			if e.Carried && (e.From == dg.NodeByID(b.ID) || e.From == dg.NodeByID(c.ID)) {
				t.Errorf("spurious carried edge from load: %+v", e)
			}
		}
	}
}

func TestFigure3ControlDeps(t *testing.T) {
	p, f, ins := figure3()
	a, br := ins[0], ins[5]
	dg := buildGraph(t, p, f)
	// The loop body is control-dependent on its own latch branch (the
	// dashed E->A edge of Figure 3).
	an := dg.NodeByID(a.ID)
	brn := dg.NodeByID(br.ID)
	found := false
	for _, c := range dg.CtrlPreds[an] {
		if c == brn {
			found = true
		}
	}
	if !found {
		t.Errorf("A not control-dependent on latch branch; ctrl preds = %v", dg.CtrlPreds[an])
	}
}

func TestEntryDefs(t *testing.T) {
	// A function that uses its formal argument r32 before defining it.
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "walk")
	fb.F.NumFormals = 1
	e := fb.Block("entry")
	ld := e.Ld(14, ir.RegArg0, 0)
	e.Mov(ir.RegRet, 14)
	e.Ret(0)
	mfb := ir.NewFunc(p, "main")
	m := mfb.Block("entry")
	m.Halt()
	dg := buildGraph(t, p, fb.F)
	n := dg.NodeByID(ld.ID)
	if len(dg.EntryDefs[n]) != 1 || dg.EntryDefs[n][0] != ir.GRLoc(ir.RegArg0) {
		t.Fatalf("EntryDefs = %v, want [r32]", dg.EntryDefs[n])
	}
	// ret's use of r8 resolves to the mov.
	var retN int
	for i, in := range dg.Nodes {
		if in.Op == ir.OpRet {
			retN = i
		}
	}
	if len(dg.DataPreds[retN]) == 0 {
		t.Fatal("ret has no data preds; return-value convention not modelled")
	}
}

func TestCallConventionEdges(t *testing.T) {
	p := ir.NewProgram("main")
	cf := ir.NewFunc(p, "callee")
	cf.F.NumFormals = 2
	cb := cf.Block("entry")
	cb.Add(ir.RegRet, ir.RegArg0, ir.RegArg0+1)
	cb.Ret(0)
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	def0 := e.MovI(ir.RegArg0, 1)
	def1 := e.MovI(ir.RegArg0+1, 2)
	call := e.Call("callee")
	use := e.Mov(20, ir.RegRet)
	e.Halt()
	dg := buildGraph(t, p, fb.F)
	if !hasEdge(dg, def0, call, false) || !hasEdge(dg, def1, call, false) {
		t.Error("call does not depend on its argument setup")
	}
	if !hasEdge(dg, call, use, false) {
		t.Error("use of r8 does not depend on the call")
	}
}

func TestHeightsSerialChain(t *testing.T) {
	p, f, ins := figure3()
	dg := buildGraph(t, p, f)
	lat := func(in *ir.Instr) float64 {
		if in.Op == ir.OpLd {
			return 100
		}
		return 1
	}
	var nodes []int
	for _, in := range ins {
		nodes = append(nodes, dg.NodeByID(in.ID))
	}
	h := dg.Heights(nodes, lat)
	// A -> B -> C: height(A) >= 1 + 100 + 100.
	if got := h[dg.NodeByID(ins[0].ID)]; got < 201 {
		t.Errorf("height(A) = %v, want >= 201", got)
	}
	// C is a leaf: height = its own latency.
	if got := h[dg.NodeByID(ins[2].ID)]; got != 100 {
		t.Errorf("height(C) = %v, want 100", got)
	}
	if mh := dg.MaxHeight(nodes, lat); mh != h[dg.NodeByID(ins[0].ID)] {
		t.Errorf("MaxHeight = %v, want height(A)", mh)
	}
	// The chain is serial: available ILP should be low (< 2).
	if ilp := dg.AvailableILP(nodes, lat); ilp >= 2 {
		t.Errorf("AvailableILP = %v, want < 2 for a serial pointer chain", ilp)
	}
}

// TestQuickHeightsMonotone: property — a node's height is at least its own
// latency and strictly greater than each forward successor's height within
// the set.
func TestQuickHeightsMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p, fn, ins := figure3()
		dg := buildGraph(t, p, fn)
		var nodes []int
		for _, in := range ins {
			nodes = append(nodes, dg.NodeByID(in.ID))
		}
		table := map[int]float64{}
		for _, n := range nodes {
			table[n] = 1 + float64(r.Intn(50))
		}
		fixed := func(in *ir.Instr) float64 { return table[dg.NodeByID(in.ID)] }
		h := dg.Heights(nodes, fixed)
		inSet := map[int]bool{}
		for _, n := range nodes {
			inSet[n] = true
		}
		for _, n := range nodes {
			if h[n] < table[n] {
				return false
			}
			for _, e := range dg.DataSuccs[n] {
				if e.Carried || !inSet[e.To] {
					continue
				}
				if h[n] < table[n]+h[e.To] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDotRendering(t *testing.T) {
	p, f, ins := figure3()
	dg := buildGraph(t, p, f)
	var nodes []int
	for _, in := range ins {
		nodes = append(nodes, dg.NodeByID(in.ID))
	}
	dot := dg.Dot("fig3", nodes)
	if !strings.Contains(dot, "digraph") || !strings.Contains(dot, "carried") {
		t.Fatalf("dot output missing structure:\n%s", dot)
	}
	if !strings.Contains(dot, "style=dashed") {
		t.Fatalf("dot output missing control edges:\n%s", dot)
	}
	if strings.Count(dot, "n") < len(nodes) {
		t.Fatal("dot output missing nodes")
	}
}
