package check

import (
	"fmt"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/ssp"
)

// This file is the speculation-safety layer.
// The static half (ssp.AnalyzeSafety) proves per-slice instruction budgets;
// the dynamic half attaches an instruction-level oracle to both cycle
// engines and asserts that no speculative thread ever executes outside a
// certified slice region or past its certified budget. A static proof that
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

// oracleMachine builds a machine with the budget oracle attached; the
// returned oracle records the first violation observed during a run.
func oracleMachine(cfg sim.Config, dp *decode.Program, budgets map[string]int64) (*sim.Machine, *budgetOracle) {
	m := sim.NewPredecoded(cfg, dp)
	o := &budgetOracle{budgets: budgets}
	m.AttachExec(o)
	return m, o
}

// SafetyEquivalence runs the speculation-safety gate on an adapted program:
// statically, every slice must carry a violation-free certificate with a
// budget at or under each configuration's MaxSpecInstrs ceiling; dynamically,
// a run on each configured engine under the budget oracle must never observe
// a speculative thread leave its certified region or exceed its certified
// budget. Programs without slices pass trivially (no speculative thread can
// exist).
func SafetyEquivalence(cfgs []sim.Config, adapted *ir.Program) error {
	img, err := ir.Link(adapted)
	if err != nil {
		return fmt.Errorf("check: link: %w", err)
	}
	dp := sim.Predecode(img)
	for _, cfg := range cfgs {
		rep := ssp.AnalyzeSafety(adapted, cfg.MaxSpecInstrs)
		if err := rep.Err(); err != nil {
			return fmt.Errorf("check: safety %v: static: %w", cfg.Model, err)
		}
		if mb := rep.MaxBudget(); mb > cfg.MaxSpecInstrs {
			return fmt.Errorf("check: safety %v: certified budget %d exceeds MaxSpecInstrs %d", cfg.Model, mb, cfg.MaxSpecInstrs)
		}
		m, o := oracleMachine(cfg, dp, rep.Budgets())
		if _, err := runMachine(m); err != nil {
			return fmt.Errorf("check: safety %v: run: %w", cfg.Model, err)
		}
		if o.err != nil {
			return fmt.Errorf("check: safety %v: dynamic oracle: %w", cfg.Model, o.err)
		}
	}
	return nil
}
