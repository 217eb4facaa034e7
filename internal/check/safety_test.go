package check

import (
	"strings"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/ssp"
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
