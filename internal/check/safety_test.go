package check

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// withOracle runs the whole lattice on an adapted program with the budget
// oracle on its reference runs, as Seed does.
func withOracle(cfgs []sim.Config, budgets []map[string]int64, adapted *ir.Program) (*runner, error) {
	r := newRunner(cfgs, maxInterpInstrs, nil)
	if err := r.add(adapted, budgets); err != nil {
		return nil, err
	}
	return r, r.walk(lattice...)
}

// TestSafetyCeilingMatchesEngines pins the contract between the static
// verifier and the dynamic machines: the default certification ceiling is
// exactly the engines' MaxSpecInstrs, so a certificate issued by the tool is
// valid on a default machine of either model.
func TestSafetyCeilingMatchesEngines(t *testing.T) {
	if got := sim.DefaultInOrder().MaxSpecInstrs; got != ssp.DefaultSafetyCeiling {
		t.Errorf("in-order MaxSpecInstrs %d != ssp.DefaultSafetyCeiling %d", got, ssp.DefaultSafetyCeiling)
	}
	if got := sim.DefaultOOO().MaxSpecInstrs; got != ssp.DefaultSafetyCeiling {
		t.Errorf("ooo MaxSpecInstrs %d != ssp.DefaultSafetyCeiling %d", got, ssp.DefaultSafetyCeiling)
	}
}

// TestSafetyWorkloadOracle runs the adapted mcf benchmark on both engines
// under the budget oracle: every speculative instruction must execute inside
// a certified region, within the certified budget.
func TestSafetyWorkloadOracle(t *testing.T) {
	_, adapted := adaptMcf(t)
	cfgs := Configs(true)
	budgets, err := SafetyEquivalence(cfgs, adapted)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := withOracle(cfgs, budgets, adapted); err != nil {
		t.Fatal(err)
	}
}

// TestSafetyOracleDetectsOverrun tampers with a certificate to prove the
// dynamic half actually fires: shrinking a region's budget below what the
// slice really executes must trip the oracle on a real run.
func TestSafetyOracleDetectsOverrun(t *testing.T) {
	_, adapted := adaptMcf(t)
	cfgs := Configs(true)[:1]
	budgets, err := SafetyEquivalence(cfgs, adapted)
	if err != nil {
		t.Fatal(err)
	}
	if len(budgets[0]) == 0 {
		t.Fatal("adapted mcf certified no regions")
	}
	r, err := strategyEquivalence(cfgs, nil, adapted)
	if err != nil {
		t.Fatal(err)
	}
	if r.ref(0, 0).Spawns == 0 {
		t.Fatal("adapted mcf spawned no speculative threads; oracle cannot fire")
	}
	for k := range budgets[0] {
		budgets[0][k] = 1 // no slice prologue fits in one instruction
	}
	_, err = withOracle(cfgs, budgets, adapted)
	if err == nil {
		t.Fatal("budget oracle accepted a run that overran a 1-instruction certificate")
	}
	if !strings.Contains(err.Error(), "dynamic oracle") || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("oracle fired for the wrong reason: %v", err)
	}
}

// FuzzCertifiedIsolation fuzzes the claim a clean safety report makes: for
// any program ir.Parse accepts and ssp.AnalyzeSafety certifies, its
// attachments never change the main thread's result, so both cycle engines
// end with the interpreter's main-thread registers (ScratchGR aside) and
// memory (Differential). Configs are the test machines under a small
// watchdog; a program that does not link, or whose reference run breaks the
// run rule (watchdog, main-thread kill, control leaving the image,
// instruction limit) has no result to compare and is skipped. Seeds:
// internal/ir/testdata/*.ssp, an adapted RandomProgram(0), the trigger
// probes of internal/ssp/testdata, which a verifier without the attachment
// rules certifies and the engines then disagree on, and the pc-range probes
// of internal/sim/testdata, whose control leaves the image.
func FuzzCertifiedIsolation(f *testing.F) {
	cfgs := Configs(true)
	for i := range cfgs {
		cfgs[i].MaxCycles = 2_000_000
	}
	files, err := filepath.Glob(filepath.Join("..", "ir", "testdata", "*.ssp"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no seed programs: %v", err)
	}
	probes, err := filepath.Glob(filepath.Join("..", "ssp", "testdata", "probe_*.ssp"))
	if err != nil || len(probes) != 2 {
		f.Fatalf("want the two trigger probes, found %v (%v)", probes, err)
	}
	ranges, err := filepath.Glob(filepath.Join("..", "sim", "testdata", "pcrange_*.ssp"))
	if err != nil || len(ranges) != 2 {
		f.Fatalf("want the two pc-range probes, found %v (%v)", ranges, err)
	}
	for _, file := range slices.Concat(files, probes, ranges) {
		src, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	p := workloads.RandomProgram(0)
	prof, err := profile.Collect(p, cfgs[0])
	if err != nil {
		f.Fatal(err)
	}
	adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), "fuzz")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(ir.Format(adapted))
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ir.Parse(src)
		if err != nil || ssp.AnalyzeSafety(p, cfgs[0].MaxSpecInstrs).Err() != nil {
			return
		}
		if _, err := ir.Link(p); err != nil {
			return // nothing to run
		}
		var re *sim.RunError
		if err := Differential(cfgs, p, 1_000_000); err != nil && !errors.As(err, &re) {
			t.Fatalf("certified program changes the main thread's result: %v", err)
		}
	})
}
