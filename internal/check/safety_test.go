package check

import (
	"strings"
	"testing"

	"ssp/internal/ir"
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
	if err := SafetyEquivalence(Configs(true), adapted); err != nil {
		t.Fatal(err)
	}
}

// TestSafetyOracleDetectsOverrun tampers with a certificate to prove the
// dynamic half actually fires: shrinking a region's budget below what the
// slice really executes must trip the oracle on a real run.
func TestSafetyOracleDetectsOverrun(t *testing.T) {
	_, adapted := adaptMcf(t)
	cfg := Configs(true)[0]
	rep := ssp.AnalyzeSafety(adapted, cfg.MaxSpecInstrs)
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	budgets := rep.Budgets()
	if len(budgets) == 0 {
		t.Fatal("adapted mcf certified no regions")
	}
	for k := range budgets {
		budgets[k] = 1 // no slice prologue fits in one instruction
	}
	img, err := ir.Link(adapted)
	if err != nil {
		t.Fatal(err)
	}
	m, o := oracleMachine(cfg, sim.Predecode(img), budgets)
	res, err := runMachine(m)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawns == 0 {
		t.Fatal("adapted mcf spawned no speculative threads; oracle cannot fire")
	}
	if o.err == nil {
		t.Fatal("budget oracle accepted a run that overran a 1-instruction certificate")
	}
	if !strings.Contains(o.err.Error(), "budget") {
		t.Fatalf("oracle fired for the wrong reason: %v", o.err)
	}
}
