package sim

import (
	"fmt"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
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
// thread"); cfg is the configuration under test. It runs the interpreter
// loop with the image's fused runs (threaded.Program.Runs) on a machine
// holding only memory, code, steps and one thread: the interpreter reads no
// hierarchy, predictor or speculative context.
func InterpretPredecoded(cfg Config, dp *decode.Program, maxInstrs int64) (*InterpResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	tp := ThreadedProgram(dp)
	m := &Machine{
		Cfg:     cfg,
		Img:     dp.Img,
		Mem:     mem.NewMemory(),
		code:    dp.Exec(),
		trap:    len(dp.Code),
		steps:   tp.Steps,
		runs:    tp.Runs,
		threads: []*Thread{{activation: activation{resumePC: -1}}},
		noSpec:  true,
	}
	m.Mem.Install(dp.Img.Data)
	return m.interpret(maxInstrs)
}

// InterpretStepwise is the interpreter loop without runs, one execArch per
// dynamic instruction, on a machine in no-speculation mode. It is the
// reference InterpretPredecoded is held to (check.StrategyEquivalence,
// FuzzThreadedEquivalence): the same instruction count, registers, memory
// and errors.
func InterpretStepwise(cfg Config, dp *decode.Program, maxInstrs int64) (*InterpResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := NewPredecoded(cfg, dp)
	m.noSpec = true
	return m.interpret(maxInstrs)
}

// interpret runs the main thread from the entry to its halt, one
// instruction at a time through execArch. After each memory or control
// instruction, while one of m.runs (nil on the per-PC loop) starts at the
// next PC, it checks the instruction limit against the run's count, runs it
// and advances past it. Runs start only there and at linked-block starts,
// where the run before ends; a pure instruction outside a run (the entry
// block's, or one a ret or callb landed inside a run) goes through execArch
// like any other. A run holds no halt, kill or control transfer, so a run
// that would cross the limit fails exactly as its instructions one at a
// time would.
func (m *Machine) interpret(maxInstrs int64) (*InterpResult, error) {
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
			if err := m.res.Err(); err != nil {
				return nil, err // the trap: control left the image
			}
			return &InterpResult{Instrs: n, Regs: t.Regs, Mem: m.Mem}, nil
		}
		if ef.kill {
			return nil, interpFailure(true, t.pc, maxInstrs)
		}
		t.pc = ef.nextPC
		for m.runs != nil {
			r := &m.runs[t.pc]
			if r.N == 0 {
				break
			}
			if n+int64(r.N) > maxInstrs {
				return nil, interpFailure(false, 0, maxInstrs)
			}
			r.Step(&t.Ctx)
			n += int64(r.N)
			t.pc += r.N
		}
	}
	return nil, interpFailure(false, 0, maxInstrs)
}

// interpFailure is the interpreter's run-rule failure: the main thread
// executed kill at pc (kill set), or the run reached the instruction limit.
func interpFailure(kill bool, pc int, maxInstrs int64) *RunError {
	if kill {
		return &RunError{"main-kill", fmt.Sprintf("sim: main thread executed kill at pc %d", pc)}
	}
	return &RunError{"instr-limit", fmt.Sprintf("sim: interpretation exceeded %d instructions", maxInstrs)}
}
