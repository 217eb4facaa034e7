package sim

import (
	"fmt"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/sim/threaded"
)

// InterpResult is the outcome of a pure functional interpretation.
type InterpResult struct {
	Instrs int64
	Regs   [ir.NumRegs]uint64
	Mem    *mem.Memory
}

// InterpretPredecoded executes only the main thread functionally, with no
// timing and no speculative contexts: chk.c behaves as a nop, exactly its
// architectural fallback, and every spawn is ignored. It is the reference
// semantics the cycle-level engines are differentially tested against (§2:
// speculative execution "does not alter the architecture state of the main
// thread"); cfg is the configuration under test. It walks the image's
// compiled block chains — no machine, no per-PC loop — and falls
// back to InterpretStepwise only for a program whose control flow the chains
// cannot represent.
func InterpretPredecoded(cfg Config, dp *decode.Program, maxInstrs int64) (*InterpResult, error) {
	if r, err, ok := interpretThreaded(dp, maxInstrs); ok {
		return r, err
	}
	return InterpretStepwise(cfg, dp, maxInstrs)
}

// InterpretStepwise is the interpreter's per-PC loop: one execArch per
// dynamic instruction on a machine in no-speculation mode. It is the
// fallback for images the chains cannot represent, and the reference the
// chain walker is held to (check.StrategyEquivalence,
// FuzzThreadedEquivalence): the same instruction count, registers, memory
// and errors.
func InterpretStepwise(cfg Config, dp *decode.Program, maxInstrs int64) (*InterpResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return NewPredecoded(cfg, dp).interpret(maxInstrs)
}

// interpret runs the per-PC loop on a machine fresh from Reset.
func (m *Machine) interpret(maxInstrs int64) (*InterpResult, error) {
	m.noSpec = true
	t := m.main()
	t.active = true
	t.pc = m.Img.Entry
	var n int64
	for n < maxInstrs {
		ef := m.execArch(t, t.pc)
		n++
		if ef == nil {
			t.pc++
			continue
		}
		if ef.halt {
			return &InterpResult{Instrs: n, Regs: t.Regs, Mem: m.Mem}, nil
		}
		if ef.kill {
			return nil, interpFailure(true, t.pc, maxInstrs)
		}
		t.pc = ef.nextPC
	}
	return nil, interpFailure(false, 0, maxInstrs)
}

// interpFailure is the interpreter's run-rule failure on either path: the
// main thread executed kill at pc (kill set), or the run reached the
// instruction limit.
func interpFailure(kill bool, pc int, maxInstrs int64) *RunError {
	if kill {
		return &RunError{"main-kill", fmt.Sprintf("sim: main thread executed kill at pc %d", pc)}
	}
	return &RunError{"instr-limit", fmt.Sprintf("sim: interpretation exceeded %d instructions", maxInstrs)}
}

// interpretThreaded runs the main thread over the closure-threaded chains.
// The false return means the chains cannot represent the program's control
// flow (statically, or a dynamic branch-register target mid-block) and the
// caller must fall back to the per-PC loop — the fallback re-executes from a
// fresh memory image, so a mid-run bailout is still exact.
func interpretThreaded(dp *decode.Program, maxInstrs int64) (*InterpResult, error, bool) {
	tp := ThreadedProgram(dp)
	if tp.Unthreadable {
		return nil, nil, false
	}
	x := &threaded.Ctx{Mem: mem.NewMemory()}
	x.Mem.Install(dp.Img.Data)
	n, err := tp.Run(x, dp.Img.Entry, maxInstrs)
	switch e := err.(type) {
	case nil:
		return &InterpResult{Instrs: n, Regs: x.Regs, Mem: x.Mem}, nil, true
	case *threaded.KillError:
		return nil, interpFailure(true, e.PC, maxInstrs), true
	case *threaded.LimitError:
		return nil, interpFailure(false, 0, maxInstrs), true
	default: // threaded.ErrUnthreadable
		return nil, nil, false
	}
}
