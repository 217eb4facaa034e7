package check

import (
	"strings"
	"testing"

	"ssp/internal/sim"
	"ssp/internal/ssp"
)

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
	if _, _, err := strategyEquivalence(cfgs, [][]map[string]int64{budgets}, nil, adapted); err != nil {
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
	refs, _, err := strategyEquivalence(cfgs, nil, nil, adapted)
	if err != nil {
		t.Fatal(err)
	}
	if refs[0][0].Spawns == 0 {
		t.Fatal("adapted mcf spawned no speculative threads; oracle cannot fire")
	}
	for k := range budgets[0] {
		budgets[0][k] = 1 // no slice prologue fits in one instruction
	}
	_, _, err = strategyEquivalence(cfgs, [][]map[string]int64{budgets}, nil, adapted)
	if err == nil {
		t.Fatal("budget oracle accepted a run that overran a 1-instruction certificate")
	}
	if !strings.Contains(err.Error(), "dynamic oracle") || !strings.Contains(err.Error(), "budget") {
		t.Fatalf("oracle fired for the wrong reason: %v", err)
	}
}
