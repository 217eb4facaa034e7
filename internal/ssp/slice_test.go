package ssp

import (
	"strings"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/workloads"
)

// recursiveProgram builds a program whose delinquent address flows through a
// recursive helper:
//
//	func deref(p, depth): if depth == 0 { return load(p) }
//	                      return deref(load(p), depth-1)
//	main: for each slot: sum += load(deref(slot, 2) + 8)
//
// The slice of the delinquent load must cross into deref, whose own slice
// recurses — exercising the fixed-point/recurrence handling of §3.1.1.
func recursiveProgram(n int) (*ir.Program, uint64) {
	p := ir.NewProgram("main")
	// Three chained pointer levels per slot, shuffled; final record holds
	// the value at +8.
	base := uint64(0x100000)
	lvl := func(k, i int) uint64 { return base + uint64(k)*uint64(n)*64 + uint64((i*2654435761)%n)*64 }
	var want uint64
	for i := 0; i < n; i++ {
		a0, a1, a2, a3 := base+uint64(i)*8+0x4000000, lvl(0, i), lvl(1, i), lvl(2, i)
		p.SetWord(a0, a1)
		p.SetWord(a1, a2)
		p.SetWord(a2, a3)
		v := uint64(i*3 + 1)
		p.SetWord(a3+8, v)
		want += v
	}

	df := ir.NewFunc(p, "deref")
	df.F.NumFormals = 2
	d0 := df.Block("entry")
	d0.CmpI(ir.CondEQ, 6, 7, ir.RegArg0+1, 0)
	d0.On(6).Br("base")
	d1 := df.Block("rec")
	// Save the return link and recurse: b0 spilled into r40 (caller-saved
	// discipline is the workload author's job).
	d1.MovFromBR(40, 0)
	d1.Ld(ir.RegArg0, ir.RegArg0, 0)
	d1.AddI(ir.RegArg0+1, ir.RegArg0+1, -1)
	d1.Call("deref")
	d1.MovBR(0, 40)
	d1.Ret(0)
	d2 := df.Block("base")
	d2.Ld(ir.RegRet, ir.RegArg0, 0)
	d2.Ret(0)

	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(base+0x4000000))
	e.MovI(15, int64(base+0x4000000+uint64(n)*8))
	e.MovI(20, 0)
	loop := fb.Block("loop")
	loop.Nop()
	loop.Ld(ir.RegArg0, 14, 0)
	loop.MovI(ir.RegArg0+1, 1)
	loop.Call("deref")
	loop.Ld(17, ir.RegRet, 8) // the delinquent load
	loop.Add(20, 20, 17)
	loop.AddI(14, 14, 8)
	loop.Cmp(ir.CondLT, 6, 7, 14, 15)
	loop.On(6).Br("loop")
	done := fb.Block("done")
	done.MovI(28, int64(workloads.ResultAddr))
	done.St(28, 0, 20)
	done.Halt()
	return p, want
}

func TestSliceThroughRecursionTerminates(t *testing.T) {
	p, want := recursiveProgram(400)
	prof, err := profile.Collect(p, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	enh, rep, err := Adapt(p, prof, DefaultOptions(), "recursive")
	if err != nil {
		t.Fatal(err)
	}
	// Whether or not a slice was deemed profitable, adaptation must
	// terminate and preserve semantics.
	img, err := ir.Link(enh)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(tinyConfig(), img)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(workloads.ResultAddr); got != want {
		t.Fatalf("checksum = %d, want %d", got, want)
	}
	if rep.NumSlices() > 0 {
		// A slice through the recursive callee is necessarily
		// interprocedural; the recursion is flattened at one context
		// level (the "could not perform aggressive inlining" limitation
		// of §4.5).
		if rep.NumInterproc() == 0 {
			t.Errorf("slice through recursion not marked interprocedural: %+v", rep.Slices)
		}
	}
}

func TestSliceStructureMcf(t *testing.T) {
	tool, f, dels := mcfTool(t, DefaultOptions())
	region := tool.selectRegion(f, dels[0])
	sl, err := tool.buildSlice(region, dels)
	if err != nil || sl == nil {
		t.Fatalf("buildSlice: %v", err)
	}
	// The slice must include the recurrence (mov + add with carried
	// edge), the latch compare and branch, and the address loads.
	var hasCarried, hasLatch bool
	for i := range sl.Nodes {
		for _, e := range sl.Preds[i] {
			if e.Carried {
				hasCarried = true
			}
		}
	}
	hasLatch = sl.Latch != nil && sl.LatchCmp != nil
	if !hasCarried {
		t.Error("no loop-carried edge in the mcf slice")
	}
	if !hasLatch {
		t.Error("latch branch/compare not identified")
	}
	if sl.Interprocedural() {
		t.Error("mcf slice should be intraprocedural")
	}
	// Live-ins are exactly the induction seed and the bound.
	if len(sl.LiveIns) != 2 {
		t.Errorf("live-ins = %v, want arc and K", sl.LiveIns)
	}
	// No side-effecting instructions in the slice.
	for _, n := range sl.Nodes {
		if n.In.HasSideEffect() && n.In.Op != ir.OpSt {
			// (the latch branch is a control transfer; it is never
			// emitted as such — see codegen — so allow OpBr here)
			if n.In.Op != ir.OpBr {
				t.Errorf("side-effecting %v in slice", n.In)
			}
		}
		if n.In.Op == ir.OpSt {
			t.Errorf("store %v in slice", n.In)
		}
	}
}

func TestMemRecurrenceDetection(t *testing.T) {
	// treeadd.df: the critical load [sp] aliases the region's push
	// stores; treeadd.bf: queue load and stores use different bases.
	for _, c := range []struct {
		bench string
		want  bool
	}{
		{"treeadd.df", true},
		{"treeadd.bf", false},
		{"mcf", false},
	} {
		spec, _ := workloads.ByName(c.bench)
		orig, _ := spec.Build(spec.TestScale)
		prof, err := profile.Collect(orig, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		p := orig.Clone()
		tool := &Tool{p: p, prof: prof, opt: DefaultOptions(), an: map[string]*analysis{}, callCycles: map[string]float64{}, report: &Report{}}
		if err := tool.analyse(); err != nil {
			t.Fatal(err)
		}
		f := p.FuncByName("main")
		var del *ir.Instr
		for _, id := range prof.DelinquentLoadsByRegion(0.9, 10, 0, func(int) string { return "" }) {
			if _, _, in := p.InstrByID(id); in != nil {
				del = in
				break
			}
		}
		region := tool.selectRegion(f, del)
		if region == nil {
			t.Fatalf("%s: no region", c.bench)
		}
		sl, _ := tool.buildSlice(region, []*ir.Instr{del})
		if sl == nil {
			t.Fatalf("%s: no slice", c.bench)
		}
		if sl.MemRecurrence != c.want {
			t.Errorf("%s: MemRecurrence = %v, want %v", c.bench, sl.MemRecurrence, c.want)
		}
	}
}

func TestEnhancedBinarySurvivesAsmRoundTrip(t *testing.T) {
	// The adapted program must serialize to assembly, parse back, and run
	// identically — SSP-enhanced binaries are ordinary binaries.
	_, enh, _, want := adaptWorkload(t, "mcf", DefaultOptions())
	text := ir.Format(enh)
	for _, needle := range []string{"chk.c", "spawn", "liw", "lir"} {
		if !strings.Contains(text, needle) {
			t.Fatalf("serialized binary lacks %s", needle)
		}
	}
	back, err := ir.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	img, err := ir.Link(back)
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(tinyConfig(), img)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(workloads.ResultAddr); got != want {
		t.Fatalf("round-tripped checksum = %d, want %d", got, want)
	}
	if res.Spawns == 0 {
		t.Fatal("round-tripped binary spawned nothing")
	}
}
