package sim

import (
	"sync/atomic"

	"ssp/internal/ir"
)

// ExecHooks observes every architecturally executed instruction, fired at the
// top of execArch before any state changes (so a hook sees the pre-execution
// register file). The machine carries no hook by default: the per-instruction
// cost of instrumentation-off is a single nil check. PC profiling
// (profileHooks) and the safety-budget oracle in internal/check are both
// implemented on this interface.
type ExecHooks interface {
	// Exec is called once per executed instruction, including nullified
	// ones (a predicated-off instruction still occupies an issue slot).
	Exec(m *Machine, t *Thread, pc int)
}

// CycleHooks observes the clock of the cycle-level engines. It is nil by
// default and only ever observes: the Figure 10 breakdown and the
// utilization histogram are accounted inline by the engines whether or not
// an observer is attached, and the fast-forward core jumps exactly as it
// would without one, so an observed run's Result is bit-for-bit an
// unobserved run's.
type CycleHooks interface {
	// Cycle is called after each simulated cycle has been accounted.
	Cycle(m *Machine)
	// Jump is called after each fast-forward jump, with the clock already
	// at the jump target; cycles is how many cycles the jump skipped.
	Jump(m *Machine, cycles int64)
}

// ProgressHooks publishes the machine's current cycle to C after every 64th
// simulated cycle (the in-order engine's stop-poll cadence) and every
// fast-forward jump, so the count trails the clock by less than 64 cycles.
// The serving layer installs one per job to stream progress over SSE, which
// reads it every 50 ms, without giving up memoization.
type ProgressHooks struct {
	// C receives the count of completed simulated cycles; read it with
	// Load from any goroutine.
	C *atomic.Int64
}

func (p ProgressHooks) Cycle(m *Machine) {
	if m.now&63 == 0 {
		p.C.Store(m.now)
	}
}

func (p ProgressHooks) Jump(m *Machine, _ int64) { p.C.Store(m.now) }

// profileHooks maintains Result.PCCount and Result.CallEdges when
// Config.Profile is set. It lives on the exec hook so profiling is free when
// off — the engines carry no profiling branches of their own.
type profileHooks struct{}

func (profileHooks) Exec(m *Machine, t *Thread, pc int) {
	if t.spec {
		return
	}
	m.res.PCCount[pc]++
	d := &m.code[pc]
	if d.Op != ir.OpCallB {
		return
	}
	// Indirect call about to execute (predicate permitting): record the
	// edge from the pre-execution branch register, the same value the
	// handler will jump through.
	if d.Qp != ir.PTrue && !t.Preds[d.Qp] {
		return
	}
	tgt := int(t.BRs[d.Bs])
	edges := m.res.CallEdges[int(d.ID)]
	if edges == nil {
		edges = make(map[int]uint64)
		m.res.CallEdges[int(d.ID)] = edges
	}
	edges[tgt]++
}

// execChain fans one exec event out to two hooks, letting an external hook
// and the profiler coexist.
type execChain struct{ a, b ExecHooks }

func (c execChain) Exec(m *Machine, t *Thread, pc int) {
	c.a.Exec(m, t, pc)
	c.b.Exec(m, t, pc)
}

// AttachExec installs an instruction-level hook (external profilers and
// oracles), chaining after any already installed. Hooks fire in attachment
// order.
func (m *Machine) AttachExec(h ExecHooks) {
	if m.exec == nil {
		m.exec = h
	} else {
		m.exec = execChain{m.exec, h}
	}
}

// SetCycleHooks installs a clock observer, replacing any installed one; nil
// detaches it. Reset detaches it too.
func (m *Machine) SetCycleHooks(h CycleHooks) { m.cycle = h }
