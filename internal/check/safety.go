package check

import (
	"fmt"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/ssp"
)

// This file is the speculation-safety layer.
// The static half (ssp.AnalyzeSafety) proves per-slice instruction budgets;
// the dynamic half attaches an instruction-level oracle to the strategy
// layer's reference run on both cycle engines and asserts that no
// speculative thread ever executes outside a certified slice region or past
// its certified budget. A static proof that
// the dynamic machines can violate is a bug in the verifier; a dynamic run
// that stays under budgets the verifier rejected would be a bug in the
// engines. The adversarial side rides along: every safety class is injected
// into the adapted binary and must be rejected with the right reason.

// budgetOracle is the ExecHooks implementation of the dynamic half: fired
// before every architecturally executed instruction, it attributes
// speculative PCs to slice regions and compares the activation's running
// instruction count against the static certificate. Exec fires before the
// thread's count includes the current instruction, so the observed count is
// Instrs()+1.
type budgetOracle struct {
	budgets map[string]int64 // region block key ("func.label") -> budget
	err     error
}

func (o *budgetOracle) Exec(m *sim.Machine, t *sim.Thread, pc int) {
	if o.err != nil || !t.Speculative() {
		return
	}
	key := m.Img.BlockKey(pc)
	b, ok := o.budgets[key]
	if !ok {
		o.err = fmt.Errorf("speculative thread executing outside any certified slice region (%s, pc %d)", key, pc)
		return
	}
	if n := t.Instrs() + 1; n > b {
		o.err = fmt.Errorf("speculative thread in %s executed %d instructions, certified budget %d", key, n, b)
	}
}

// SafetyEquivalence is the static half of the speculation-safety gate on an
// adapted program: every slice must carry a violation-free certificate with
// a budget at or under each configuration's MaxSpecInstrs ceiling. It
// returns each configuration's certified budgets, in cfgs order, for the
// budget oracle, which strategyEquivalence attaches to the program's
// reference run on that engine. Programs without slices pass trivially.
func SafetyEquivalence(cfgs []sim.Config, adapted *ir.Program) ([]map[string]int64, error) {
	budgets := make([]map[string]int64, len(cfgs))
	for ci, cfg := range cfgs {
		rep := ssp.AnalyzeSafety(adapted, cfg.MaxSpecInstrs)
		if err := rep.Err(); err != nil {
			return nil, fmt.Errorf("check: safety %v: static: %w", cfg.Model, err)
		}
		if mb := rep.MaxBudget(); mb > cfg.MaxSpecInstrs {
			return nil, fmt.Errorf("check: safety %v: certified budget %d exceeds MaxSpecInstrs %d", cfg.Model, mb, cfg.MaxSpecInstrs)
		}
		budgets[ci] = rep.Budgets()
	}
	return budgets, nil
}
