package ssp

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ssp/internal/handtuned"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/workloads"
)

// TestSafetyCertifiesAdaptedBenchmarks proves the positive half of the
// speculation-safety contract over the whole benchmark suite: every adapted
// benchmark, under both the chaining and the basic precomputation models,
// carries a violation-free safety report whose per-slice budgets sit at or
// under the hardware ceiling.
func TestSafetyCertifiesAdaptedBenchmarks(t *testing.T) {
	variants := []struct {
		name string
		opt  Options
	}{
		{"chaining", DefaultOptions()},
		{"basic", func() Options { o := DefaultOptions(); o.Chaining = false; return o }()},
		{"unroll2", func() Options { o := DefaultOptions(); o.ChainUnroll = 2; return o }()},
	}
	for _, spec := range workloads.All() {
		for _, v := range variants {
			_, enh, rep, _ := adaptWorkload(t, spec.Name, v.opt)
			if rep.Safety == nil {
				t.Fatalf("%s/%s: adaptation report carries no safety certificate", spec.Name, v.name)
			}
			if len(rep.Safety.Violations) != 0 {
				t.Errorf("%s/%s: self-certified report carries violations: %v", spec.Name, v.name, rep.Safety.Violations)
			}
			if got, want := len(rep.Safety.Slices), rep.NumSlices(); got != want {
				t.Errorf("%s/%s: %d certificates for %d slices", spec.Name, v.name, got, want)
			}
			if mb := rep.Safety.MaxBudget(); mb > rep.Safety.Ceiling {
				t.Errorf("%s/%s: max budget %d exceeds ceiling %d", spec.Name, v.name, mb, rep.Safety.Ceiling)
			}
			for _, s := range rep.Safety.Slices {
				if s.Budget <= 0 {
					t.Errorf("%s/%s: slice %s certified a non-positive budget %d", spec.Name, v.name, s.Slice, s.Budget)
				}
				if len(s.Obligations) == 0 {
					t.Errorf("%s/%s: slice %s discharged no obligations", spec.Name, v.name, s.Slice)
				}
				if s.Paths <= 0 {
					t.Errorf("%s/%s: slice %s proof covers no paths", spec.Name, v.name, s.Slice)
				}
			}
			// Re-verifying the emitted binary from scratch must agree with
			// the self-certification.
			rep2 := AnalyzeSafety(enh, DefaultSafetyCeiling)
			if err := rep2.Err(); err != nil {
				t.Errorf("%s/%s: re-verification failed: %v", spec.Name, v.name, err)
			}
			if rep2.MaxBudget() != rep.Safety.MaxBudget() {
				t.Errorf("%s/%s: re-verified budget %d != certified %d", spec.Name, v.name, rep2.MaxBudget(), rep.Safety.MaxBudget())
			}
		}
	}
}

// TestSafetyRejectsMutatedBenchmarks is the mutation-based negative corpus:
// for every adapted benchmark, inject one violation per safety class and
// assert the verifier rejects each mutant with a violation of exactly the
// injected class — no vacuous passes, no wrong-reason rejections.
func TestSafetyRejectsMutatedBenchmarks(t *testing.T) {
	for _, spec := range workloads.All() {
		_, enh, rep, _ := adaptWorkload(t, spec.Name, DefaultOptions())
		if rep.NumSlices() == 0 {
			t.Fatalf("%s: no slices emitted — the negative sweep would be vacuous", spec.Name)
		}
		if err := CheckUnsafe(enh, DefaultSafetyCeiling); err != nil {
			t.Errorf("%s: %v", spec.Name, err)
		}
	}
}

// TestSafetyCertifiesHandAdaptations pins the hand-tuned binaries and the
// hand-written attachment of the IR corpus, whose stub carries no tool
// label: their latch-guarded chains must verify as data-guarded
// (ChainBound -1) with a static straight-line budget.
func TestSafetyCertifiesHandAdaptations(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "ir", "testdata", "ssp_attachment.ssp"))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"mcf", "health", "ssp_attachment.ssp"} {
		hand := corpus
		if spec, err := workloads.ByName(name); err == nil {
			orig, _ := spec.Build(spec.TestScale)
			if hand, err = handtuned.Adapt(name, orig); err != nil {
				t.Fatal(err)
			}
		}
		rep := AnalyzeSafety(hand, DefaultSafetyCeiling)
		if err := rep.Err(); err != nil {
			t.Fatalf("%s hand: %v", name, err)
		}
		if len(rep.Slices) == 0 {
			t.Fatalf("%s hand: no slice certified", name)
		}
		for _, s := range rep.Slices {
			if !s.Static {
				t.Errorf("%s hand: slice %s not statically budgeted", name, s.Slice)
			}
			if s.ChainBound != -1 {
				t.Errorf("%s hand: slice %s chain bound %d, want -1 (data-guarded)", name, s.Slice, s.ChainBound)
			}
		}
	}
}

// TestVerifyAcceptsToolOutput re-verifies emitted binaries from scratch:
// the one verifier must accept the stubs, triggers and slices the tool
// writes, main-thread side included.
func TestVerifyAcceptsToolOutput(t *testing.T) {
	for _, name := range []string{"mcf", "em3d", "treeadd.df", "health"} {
		_, enh, _, _ := adaptWorkload(t, name, DefaultOptions())
		if err := AnalyzeSafety(enh, DefaultSafetyCeiling).Err(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestVerifyAcceptsHandAdaptations checks that the hand-tuned binaries,
// whose stubs carry no tool label, pass the same rules.
func TestVerifyAcceptsHandAdaptations(t *testing.T) {
	for _, name := range []string{"mcf", "health"} {
		spec, _ := workloads.ByName(name)
		orig, _ := spec.Build(spec.TestScale)
		hand, err := handtuned.Adapt(name, orig)
		if err != nil {
			t.Fatal(err)
		}
		if err := AnalyzeSafety(hand, DefaultSafetyCeiling).Err(); err != nil {
			t.Errorf("%s hand: %v", name, err)
		}
	}
}

// TestSafetyBudgetArithmetic pins the certificate numbers on a hand-built
// countdown loop: a stub staging bound 5, a two-instruction prologue, a
// five-instruction loop body, and a kill tail must certify exactly
// prologue + (1+bound)*body + tail instructions (one acyclic traversal plus
// bound collapsed iterations).
func TestSafetyBudgetArithmetic(t *testing.T) {
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.Chk("ssp_stub_0")
	e.Halt()
	stub := fb.Block("ssp_stub_0")
	stub.Liw(0, 7)
	stub.MovI(ScratchGR, 5)
	stub.Liw(1, ScratchGR)
	stub.Spawn("ssp_slice_0")
	root := fb.Block("ssp_slice_0")
	root.Lir(7, 0)
	root.Lir(ScratchGR, 1)
	loop := fb.Block("ssp_slice_0_loop")
	loop.Lfetch(7, 0)
	loop.AddI(7, 7, 8)
	loop.AddI(ScratchGR, ScratchGR, -1)
	loop.CmpI(ir.CondGT, 63, 62, ScratchGR, 0)
	loop.On(63).Br("ssp_slice_0_loop")
	done := fb.Block("ssp_slice_0_done")
	done.Kill()
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	rep := AnalyzeSafety(p, DefaultSafetyCeiling)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if len(rep.Slices) != 1 {
		t.Fatalf("certified %d slices, want 1", len(rep.Slices))
	}
	s := rep.Slices[0]
	if !s.Static {
		t.Fatalf("countdown loop not statically budgeted: %+v", s)
	}
	// prologue 2 + loop body 5 (acyclic traversal) + 5*5 (collapsed
	// iterations) + kill 1 = 33.
	if want := int64(2 + 5 + 5*5 + 1); s.Budget != want {
		t.Fatalf("budget %d, want %d (%+v)", s.Budget, want, s)
	}
	if s.Backedges != 1 {
		t.Fatalf("backedges %d, want 1", s.Backedges)
	}
}

// TestSafetyLoopClassification pins the region-graph analysis on loops
// that span blocks, which tool output (single-block loops) never has: a
// two-block countdown loop is natural — its header dominates its latch — and
// certifies a static budget even when a continuation block precedes the
// root in layout; a loop entered at two blocks is irreducible and falls back
// to the hardware ceiling.
func TestSafetyLoopClassification(t *testing.T) {
	natural := func() *ir.Program {
		p := ir.NewProgram("main")
		fb := ir.NewFunc(p, "main")
		e := fb.Block("entry")
		e.Chk("ssp_stub_0")
		e.Halt()
		stub := fb.Block("ssp_stub_0")
		stub.Liw(0, 7)
		stub.MovI(ScratchGR, 5)
		stub.Liw(1, ScratchGR)
		stub.Spawn("ssp_slice_0")
		fb.Block("ssp_slice_0_done").Kill()
		root := fb.Block("ssp_slice_0")
		root.Lir(7, 0)
		root.Lir(ScratchGR, 1)
		head := fb.Block("ssp_slice_0_head")
		head.Lfetch(7, 0)
		head.AddI(7, 7, 8)
		latch := fb.Block("ssp_slice_0_latch")
		latch.AddI(ScratchGR, ScratchGR, -1)
		latch.CmpI(ir.CondGT, 63, 62, ScratchGR, 0)
		latch.On(63).Br("ssp_slice_0_head")
		fb.Block("ssp_slice_0_exit").Br("ssp_slice_0_done")
		return p
	}()
	irreducible := func() *ir.Program {
		p := ir.NewProgram("main")
		fb := ir.NewFunc(p, "main")
		fb.Block("entry").Halt()
		root := fb.Block("ssp_slice_0")
		root.Lir(7, 0)
		root.CmpI(ir.CondLT, 20, 21, 7, 64)
		root.On(20).Br("ssp_slice_0_b")
		a := fb.Block("ssp_slice_0_a")
		a.AddI(7, 7, 8)
		a.CmpI(ir.CondLT, 24, 25, 7, 4096)
		a.On(24).Br("ssp_slice_0_b")
		fb.Block("ssp_slice_0_akill").Kill()
		b := fb.Block("ssp_slice_0_b")
		b.Lfetch(7, 0)
		b.CmpI(ir.CondLT, 22, 23, 7, 4096)
		b.On(22).Br("ssp_slice_0_a")
		fb.Block("ssp_slice_0_bkill").Kill()
		return p
	}()
	for _, tc := range []struct {
		name   string
		p      *ir.Program
		static bool
		budget int64
	}{
		// prologue 2 + one acyclic pass of head 2 and latch 3 + 5 collapsed
		// iterations of 5 + exit branch 1 + kill 1.
		{"natural", natural, true, 2 + 5 + 5*5 + 1 + 1},
		{"irreducible", irreducible, false, DefaultSafetyCeiling},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.p.Validate(); err != nil {
				t.Fatal(err)
			}
			rep := AnalyzeSafety(tc.p, DefaultSafetyCeiling)
			if err := rep.Err(); err != nil {
				t.Fatal(err)
			}
			if len(rep.Slices) != 1 {
				t.Fatalf("certified %d slices, want 1", len(rep.Slices))
			}
			s := rep.Slices[0]
			if s.Static != tc.static || s.Budget != tc.budget || s.Backedges != 1 {
				t.Fatalf("static %v budget %d backedges %d, want %v %d 1 (%+v)", s.Static, s.Budget, s.Backedges, tc.static, tc.budget, s)
			}
			if irr := strings.Contains(strings.Join(s.Obligations, "\n"), "irreducible"); irr == tc.static {
				t.Fatalf("irreducible obligation present = %v, want %v: %v", irr, !tc.static, s.Obligations)
			}
		})
	}
}

// TestSafetyRejectsStuckLoopGuard pins the loop-variance obligation: a
// backedge guard recomputed each iteration from values the loop never
// changes is still an infinite loop, and the verifier must say so.
func TestSafetyRejectsStuckLoopGuard(t *testing.T) {
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.Halt()
	root := fb.Block("ssp_slice_0")
	root.Lir(7, 0)
	loop := fb.Block("ssp_slice_0_loop")
	loop.Lfetch(7, 0)
	loop.CmpI(ir.CondGT, 20, 21, 7, 0) // r7 never changes in the loop
	loop.On(20).Br("ssp_slice_0_loop")
	done := fb.Block("ssp_slice_0_done")
	done.Kill()
	rep := AnalyzeSafety(p, DefaultSafetyCeiling)
	found := false
	for _, v := range rep.Violations {
		if v.Class == SafetyUnboundedLoop && strings.Contains(v.Detail, "loop-invariant") {
			found = true
		}
	}
	if !found {
		t.Fatalf("stuck guard accepted; violations: %v", rep.Violations)
	}
}

// TestSafetyAcceptsProgramsWithoutSlices: a plain program yields an empty,
// violation-free report.
func TestSafetyAcceptsProgramsWithoutSlices(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := spec.Build(spec.TestScale)
	rep := AnalyzeSafety(orig, DefaultSafetyCeiling)
	if err := rep.Err(); err != nil {
		t.Fatalf("plain program rejected: %v", err)
	}
	if len(rep.Slices) != 0 || len(rep.Violations) != 0 {
		t.Fatalf("plain program produced a non-empty report: %+v", rep)
	}
}

// FuzzAnalyzeSafety drives the certifier with untrusted IR, the way the
// serving layer vets submitted source. For any program ir.Parse accepts,
// the analysis must not panic, must be deterministic, must fold to a nil
// Err exactly when it reports no violation, and must certify every
// violation-free slice with a budget in [1, ceiling]: each such path ends
// in a reachable kill, and a larger static budget is itself a violation.
// Seeds: the parser's testdata programs plus every InjectUnsafe mutant of
// one adapted random program.
func FuzzAnalyzeSafety(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ssp"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed programs: %v", err)
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	p := workloads.RandomProgram(0)
	prof, err := profile.Collect(p, tinyConfig())
	if err != nil {
		f.Fatal(err)
	}
	adapted, _, err := Adapt(p, prof, DefaultOptions(), "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	// The certifier never reads the data image; a data-free copy keeps the
	// seeds small, so the fuzzer spends its time mutating code, not
	// minimizing data. The copy shares nothing writable with p or adapted.
	bare := adapted.Clone()
	bare.Data = nil
	f.Add(ir.Format(bare))
	for _, class := range UnsafeClasses {
		m, ok := InjectUnsafe(bare, class)
		if !ok {
			f.Fatalf("no slice to inject %q into", class)
		}
		f.Add(ir.Format(m))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ir.Parse(src)
		if err != nil {
			return
		}
		rep := AnalyzeSafety(p, DefaultSafetyCeiling)
		if again := AnalyzeSafety(p, DefaultSafetyCeiling); !reflect.DeepEqual(rep, again) {
			t.Fatalf("two analyses differ:\n%+v\n%+v", rep, again)
		}
		if (rep.Err() == nil) != (len(rep.Violations) == 0) {
			t.Fatalf("Err() = %v with %d violations", rep.Err(), len(rep.Violations))
		}
		bad := map[string]bool{}
		for _, v := range rep.Violations {
			bad[v.Slice] = true
		}
		for _, s := range rep.Slices {
			if !bad[s.Slice] && (s.Budget < 1 || s.Budget > rep.Ceiling) {
				t.Fatalf("violation-free slice %s certified budget %d outside [1, %d]", s.Slice, s.Budget, rep.Ceiling)
			}
		}
	})
}

// hasClass reports whether the report carries a violation of the class.
func hasClass(rep *SafetyReport, class SafetyClass) bool {
	for _, v := range rep.Violations {
		if v.Class == class {
			return true
		}
	}
	return false
}

// TestVerifyRejectsCorruptions applies one corruption to a fresh adapted mcf
// per case and expects the verifier to reject it with the case's class: the
// slice-region rules, the Figure 7 attachment rules, and the regressions
// each once let through.
func TestVerifyRejectsCorruptions(t *testing.T) {
	insert := func(p *ir.Program, label string, pos int, in *ir.Instr) {
		b := p.FuncByName("main").BlockByLabel(label)
		p.Assign(in)
		b.InsertAt(min(pos, len(b.Instrs)), in)
	}
	for _, tc := range []struct {
		name  string
		class SafetyClass
		fn    func(*ir.Program)
	}{
		{"store in slice", SafetyStore, func(p *ir.Program) {
			insert(p, "ssp_slice_0", 1, &ir.Instr{Op: ir.OpSt, Ra: 21, Rb: 21})
		}},
		{"call in slice", SafetyEscape, func(p *ir.Program) {
			insert(p, "ssp_slice_0", 1, &ir.Instr{Op: ir.OpCall, Target: "main", Bd: 0})
		}},
		{"missing kill", SafetyNoKill, func(p *ir.Program) {
			for _, in := range p.FuncByName("main").BlockByLabel("ssp_slice_0").Instrs {
				if in.Op == ir.OpKill {
					in.Op = ir.OpNop
				}
			}
		}},
		{"stub without spawn", SafetyTrigger, func(p *ir.Program) {
			b := p.FuncByName("main").BlockByLabel("ssp_stub_0")
			b.Terminator().Op = ir.OpNop
			b.Terminator().Target = ""
		}},
		{"predicated stub spawn", SafetyTrigger, func(p *ir.Program) {
			p.FuncByName("main").BlockByLabel("ssp_stub_0").Terminator().Qp = 5
		}},
		{"stub spawns a non-slice", SafetyEscape, func(p *ir.Program) {
			p.FuncByName("main").BlockByLabel("ssp_stub_0").Terminator().Target = "loop"
		}},
		{"stub writes a main register", SafetyTrigger, func(p *ir.Program) {
			insert(p, "ssp_stub_0", 0, &ir.Instr{Op: ir.OpMovI, Rd: 2, Imm: 99})
		}},
		{"stub copies into a main register", SafetyTrigger, func(p *ir.Program) {
			insert(p, "ssp_stub_0", 0, &ir.Instr{Op: ir.OpMov, Rd: 2, Ra: 3})
		}},
		{"main code reads the staged scratch", SafetyTrigger, func(p *ir.Program) {
			insert(p, "ssp_stub_0", 0, &ir.Instr{Op: ir.OpMovI, Rd: ScratchGR, Imm: 5})
			insert(p, "loop", 1, &ir.Instr{Op: ir.OpAdd, Rd: 2, Ra: ScratchGR, Rb: 2})
		}},
		{"spawn in main code", SafetyTrigger, func(p *ir.Program) {
			insert(p, "loop", 1, &ir.Instr{Op: ir.OpSpawn, Target: "ssp_slice_0"})
		}},
		{"uninitialized live-in slot", SafetyLiveIn, func(p *ir.Program) {
			for _, in := range p.FuncByName("main").BlockByLabel("ssp_slice_0").Instrs {
				if in.Op == ir.OpLir {
					in.Imm = 13 // a slot the stub never writes
					break
				}
			}
		}},
		// Regression: a lir after the first non-lir instruction used to
		// bypass the subset check entirely (the scan broke at the end of
		// the prologue).
		{"post-prologue lir reads unwritten slot", SafetyLiveIn, func(p *ir.Program) {
			insert(p, "ssp_slice_0", len(p.FuncByName("main").BlockByLabel("ssp_slice_0").Instrs)-1, &ir.Instr{Op: ir.OpLir, Rd: 30, Imm: 13})
		}},
		// Regression: continuation blocks (ssp_slice_N_*) were never
		// scanned, so a lir there could read a slot no spawner writes.
		{"continuation-block lir reads unwritten slot", SafetyLiveIn, func(p *ir.Program) {
			p.FuncByName("main").AddBlock("ssp_slice_0_cont")
			insert(p, "ssp_slice_0_cont", 0, &ir.Instr{Op: ir.OpLir, Rd: 30, Imm: 13})
		}},
		{"liw slot outside the live-in buffer", SafetyLiveInRange, func(p *ir.Program) {
			for _, in := range p.FuncByName("main").BlockByLabel("ssp_stub_0").Instrs {
				if in.Op == ir.OpLiw {
					in.Imm = int64(ir.LIBSlots) // hardware would wrap to slot 0
					break
				}
			}
		}},
		// A chk.c makes its target a stub, so the loop header it now
		// targets must have the stub shape, and does not.
		{"chk to non-stub", SafetyTrigger, func(p *ir.Program) {
			p.FuncByName("main").Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
				if in.Op == ir.OpChk {
					in.Target = "loop"
				}
			})
		}},
		{"chk into the slice", SafetyTrigger, func(p *ir.Program) {
			p.FuncByName("main").Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
				if in.Op == ir.OpChk {
					in.Target = "ssp_slice_0"
				}
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, enh, _, _ := adaptWorkload(t, "mcf", DefaultOptions())
			if err := AnalyzeSafety(enh, DefaultSafetyCeiling).Err(); err != nil {
				t.Fatalf("adapted mcf rejected before the corruption: %v", err)
			}
			tc.fn(enh)
			enh.FuncByName("main").Renumber()
			if rep := AnalyzeSafety(enh, DefaultSafetyCeiling); !hasClass(rep, tc.class) {
				t.Errorf("want a %q violation, got %v", tc.class, rep.Violations)
			}
		})
	}
}

// TestVerifyRejectsKillOnOneBranchArm is the regression for the weak kill
// check: the old scan accepted a slice as terminated if *any* kill appeared
// anywhere in its region, so a kill reachable on only one branch arm passed.
// The all-paths analysis must reject the arm that leaves the region without
// one.
func TestVerifyRejectsKillOnOneBranchArm(t *testing.T) {
	_, enh, _, _ := adaptWorkload(t, "mcf", DefaultOptions())
	f := enh.FuncByName("main")
	b := f.BlockByLabel("ssp_slice_0")
	// Branch around the region's tail (where the kill lives) on one arm:
	// the fall-through arm still kills, the taken arm falls off the region.
	f.AddBlock("ssp_slice_0_stray") // deliberately empty: the arm exits the region without kill
	br := &ir.Instr{Op: ir.OpBr, Qp: 1, Target: "ssp_slice_0_stray"}
	enh.Assign(br)
	b.InsertAt(0, br)
	f.Renumber()
	rep := AnalyzeSafety(enh, DefaultSafetyCeiling)
	if len(rep.Violations) == 0 {
		t.Fatal("verification accepted a slice whose kill is on only one branch arm")
	}
	if !hasClass(rep, SafetyNoKill) {
		t.Fatalf("rejected for the wrong reason: %v", rep.Violations)
	}
}

// TestSafetyRejectsProbes: a chk.c diverts the main thread into its target
// block, so a target that writes a main-thread register changes the main
// thread's result on the engines (testdata/probe_*.ssp leave 99 instead of
// 7). The verifier rejects such a target as a trigger violation whatever
// its label, and accepts the same program once the write is gone.
func TestSafetyRejectsProbes(t *testing.T) {
	for _, name := range []string{"probe_chk_nonstub.ssp", "probe_stub_write.ssp"} {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		rep := AnalyzeSafety(p, DefaultSafetyCeiling)
		if len(rep.Violations) != 1 || rep.Violations[0].Class != SafetyTrigger {
			t.Errorf("%s: violations %v, want one %q", name, rep.Violations, SafetyTrigger)
		}
		fixed, err := ir.Parse(strings.Replace(string(src), "movi r2 = 99", "movi r127 = 99", 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := AnalyzeSafety(fixed, DefaultSafetyCeiling).Err(); err != nil {
			t.Errorf("%s staging only the scratch register: %v", name, err)
		}
	}
}
