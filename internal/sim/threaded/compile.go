package threaded

import (
	"math"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
)

// Compile lowers a predecoded image into its threaded form: one specialized
// step per pure instruction, and the runs fused from them. The result is
// immutable and goroutine-safe.
func Compile(dp *decode.Program) *Program {
	n := len(dp.Code)
	p := &Program{Steps: make([]Step, n+1), Runs: make([]Run, n+1)}
	// body holds each pure PC's step, nil when it has no architectural
	// effect: a run fuses only the steps that do something.
	body := make([]Step, n)
	for pc := range dp.Code {
		d := &dp.Code[pc]
		s, pure := stepFor(d)
		if !pure {
			continue
		}
		s = guard(d.Qp, s)
		body[pc] = s
		if s == nil {
			s = nopStep // effect-free either way: nop, hardwired sink
		}
		p.Steps[pc] = s
		p.NSteps++
	}
	blockOf := dp.Img.BlockOf
	var chunk []Step
	for pc := 0; pc < n; {
		if p.Steps[pc] == nil {
			pc++
			continue
		}
		start := pc
		chunk = chunk[:0]
		for ; pc < n && p.Steps[pc] != nil && (pc == start || blockOf[pc] == blockOf[pc-1]); pc++ {
			if body[pc] != nil {
				chunk = append(chunk, body[pc])
			}
		}
		s := fuse(chunk)
		if s == nil {
			s = nopStep
		}
		p.Runs[start] = Run{Step: s, N: pc - start}
	}
	return p
}

// nopStep is the shared closure for pure instructions with no architectural
// effect, so every pure PC has a step.
func nopStep(*Ctx) {}

// guard wraps a step with its qualifying predicate, specialized away for the
// always-true p0 and for effect-free steps.
func guard(qp ir.PR, s Step) Step {
	if s == nil || qp == ir.PTrue {
		return s
	}
	return func(x *Ctx) {
		if x.Preds[qp] {
			s(x)
		}
	}
}

// fuse composes non-nil steps into one closure, unrolled for up to eight
// and tree-composed beyond. Fewer levels of nested calls matter: unrolling
// up to four instead makes the interpreter about 10% slower on the ALU
// loop's fourteen-step run (BENCH_sim.json "threaded_runs").
func fuse(ss []Step) Step {
	switch len(ss) {
	case 0:
		return nil
	case 1:
		return ss[0]
	case 2:
		a, b := ss[0], ss[1]
		return func(x *Ctx) { a(x); b(x) }
	case 3:
		a, b, c := ss[0], ss[1], ss[2]
		return func(x *Ctx) { a(x); b(x); c(x) }
	case 4:
		a, b, c, d := ss[0], ss[1], ss[2], ss[3]
		return func(x *Ctx) { a(x); b(x); c(x); d(x) }
	case 5:
		a, b, c, d, e := ss[0], ss[1], ss[2], ss[3], ss[4]
		return func(x *Ctx) { a(x); b(x); c(x); d(x); e(x) }
	case 6:
		a, b, c, d, e, f := ss[0], ss[1], ss[2], ss[3], ss[4], ss[5]
		return func(x *Ctx) {
			a(x)
			b(x)
			c(x)
			d(x)
			e(x)
			f(x)
		}
	case 7:
		a, b, c, d, e, f, g := ss[0], ss[1], ss[2], ss[3], ss[4], ss[5], ss[6]
		return func(x *Ctx) {
			a(x)
			b(x)
			c(x)
			d(x)
			e(x)
			f(x)
			g(x)
		}
	case 8:
		a, b, c, d, e, f, g, h := ss[0], ss[1], ss[2], ss[3], ss[4], ss[5], ss[6], ss[7]
		return func(x *Ctx) {
			a(x)
			b(x)
			c(x)
			d(x)
			e(x)
			f(x)
			g(x)
			h(x)
		}
	default:
		h := len(ss) / 2
		a, b := fuse(ss[:h]), fuse(ss[h:])
		return func(x *Ctx) { a(x); b(x) }
	}
}

// cmpResult evaluates an integer comparison.
func cmpResult(cond ir.Cond, a, b uint64) bool {
	switch cond {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT:
		return int64(a) < int64(b)
	case ir.CondLE:
		return int64(a) <= int64(b)
	case ir.CondGT:
		return int64(a) > int64(b)
	case ir.CondGE:
		return int64(a) >= int64(b)
	case ir.CondLTU:
		return a < b
	case ir.CondGEU:
		return a >= b
	}
	return false
}

// frRead specializes an FP register read on the hardwired f0/f1.
func frRead(f ir.FR) func(x *Ctx) float64 {
	switch f {
	case ir.FZero:
		return func(*Ctx) float64 { return 0 }
	case ir.FOne:
		return func(*Ctx) float64 { return 1 }
	}
	return func(x *Ctx) float64 { return x.FRegs[f] }
}

// frWritable reports whether fd is a real (non-hardwired) FP destination.
func frWritable(f ir.FR) bool { return f != ir.FZero && f != ir.FOne }

// stepFor builds the unpredicated specialized closure for one instruction:
// the one definition of every pure opcode's semantics. It returns the
// closure (nil when the instruction has no architectural effect) and
// whether the instruction is pure — no memory, control, or machine-level
// effect, so the engines and the interpreter may execute the closure under
// their own timing and accounting.
func stepFor(d *decode.Decoded) (s Step, pure bool) {
	rd, ra, rb := d.Rd, d.Ra, d.Rb
	imm := uint64(d.Imm)
	switch d.H {
	case decode.HNop:
		return nil, true
	case decode.HAdd:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] + x.Regs[rb] }, true
	case decode.HAddI:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] + imm }, true
	case decode.HSub:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] - x.Regs[rb] }, true
	case decode.HSubI:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] - imm }, true
	case decode.HMul:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] * x.Regs[rb] }, true
	case decode.HMulI:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] * imm }, true
	case decode.HAnd:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] & x.Regs[rb] }, true
	case decode.HAndI:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] & imm }, true
	case decode.HOr:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] | x.Regs[rb] }, true
	case decode.HOrI:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] | imm }, true
	case decode.HXor:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] ^ x.Regs[rb] }, true
	case decode.HXorI:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] ^ imm }, true
	case decode.HShl:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] << (x.Regs[rb] & 63) }, true
	case decode.HShlI:
		if rd == ir.RegZero {
			return nil, true
		}
		sh := imm & 63
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] << sh }, true
	case decode.HShr:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] >> (x.Regs[rb] & 63) }, true
	case decode.HShrI:
		if rd == ir.RegZero {
			return nil, true
		}
		sh := imm & 63
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] >> sh }, true
	case decode.HMov:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] }, true
	case decode.HMovI:
		if rd == ir.RegZero {
			return nil, true
		}
		return func(x *Ctx) { x.Regs[rd] = imm }, true
	case decode.HCmp, decode.HCmpI:
		return cmpStep(d), true
	case decode.HMovBR:
		bd := d.Bd
		return func(x *Ctx) { x.BRs[bd] = x.Regs[ra] }, true
	case decode.HMovBRFunc:
		bd, tgt := d.Bd, uint64(d.Tgt)
		return func(x *Ctx) { x.BRs[bd] = tgt }, true
	case decode.HMovFromBR:
		if rd == ir.RegZero {
			return nil, true
		}
		bs := d.Bs
		return func(x *Ctx) { x.Regs[rd] = x.BRs[bs] }, true
	case decode.HLiw:
		slot := int(d.Imm) // pre-masked at decode
		return func(x *Ctx) { x.OutLIB[slot] = x.Regs[ra] }, true
	case decode.HLir:
		if rd == ir.RegZero {
			return nil, true
		}
		slot := int(d.Imm)
		return func(x *Ctx) { x.Regs[rd] = x.InLIB[slot] }, true
	case decode.HSetF:
		if !frWritable(d.Fd) {
			return nil, true
		}
		fd := d.Fd
		return func(x *Ctx) { x.FRegs[fd] = math.Float64frombits(x.Regs[ra]) }, true
	case decode.HGetF:
		if rd == ir.RegZero {
			return nil, true
		}
		fa := frRead(d.Fa)
		return func(x *Ctx) { x.Regs[rd] = math.Float64bits(fa(x)) }, true
	case decode.HFAdd:
		if !frWritable(d.Fd) {
			return nil, true
		}
		fd, fa, fb := d.Fd, frRead(d.Fa), frRead(d.Fb)
		return func(x *Ctx) { x.FRegs[fd] = fa(x) + fb(x) }, true
	case decode.HFSub:
		if !frWritable(d.Fd) {
			return nil, true
		}
		fd, fa, fb := d.Fd, frRead(d.Fa), frRead(d.Fb)
		return func(x *Ctx) { x.FRegs[fd] = fa(x) - fb(x) }, true
	case decode.HFMul:
		if !frWritable(d.Fd) {
			return nil, true
		}
		fd, fa, fb := d.Fd, frRead(d.Fa), frRead(d.Fb)
		return func(x *Ctx) { x.FRegs[fd] = fa(x) * fb(x) }, true
	case decode.HFMA:
		if !frWritable(d.Fd) {
			return nil, true
		}
		fd, fa, fb, fc := d.Fd, frRead(d.Fa), frRead(d.Fb), frRead(d.Fc)
		return func(x *Ctx) { x.FRegs[fd] = fa(x)*fb(x) + fc(x) }, true
	case decode.HFCmp:
		return fcmpStep(d), true
	}
	return nil, false // memory or control: sim's handler table
}

// cmpStep specializes an integer compare on its addressing form and live
// predicate destinations.
func cmpStep(d *decode.Decoded) Step {
	cond, ra := d.Cond, d.Ra
	pd1, pd2 := d.Pd1, d.Pd2
	if pd1 == ir.PTrue && pd2 == ir.PTrue {
		return nil // both destinations hardwired: architecturally dead
	}
	if d.H == decode.HCmpI {
		imm := uint64(d.Imm)
		switch {
		case pd1 != ir.PTrue && pd2 != ir.PTrue:
			return func(x *Ctx) {
				r := cmpResult(cond, x.Regs[ra], imm)
				x.Preds[pd1] = r
				x.Preds[pd2] = !r
			}
		case pd1 != ir.PTrue:
			return func(x *Ctx) { x.Preds[pd1] = cmpResult(cond, x.Regs[ra], imm) }
		default:
			return func(x *Ctx) { x.Preds[pd2] = !cmpResult(cond, x.Regs[ra], imm) }
		}
	}
	rb := d.Rb
	switch {
	case pd1 != ir.PTrue && pd2 != ir.PTrue:
		return func(x *Ctx) {
			r := cmpResult(cond, x.Regs[ra], x.Regs[rb])
			x.Preds[pd1] = r
			x.Preds[pd2] = !r
		}
	case pd1 != ir.PTrue:
		return func(x *Ctx) { x.Preds[pd1] = cmpResult(cond, x.Regs[ra], x.Regs[rb]) }
	default:
		return func(x *Ctx) { x.Preds[pd2] = !cmpResult(cond, x.Regs[ra], x.Regs[rb]) }
	}
}

// fcmpStep specializes an FP compare on its live predicate destinations.
func fcmpStep(d *decode.Decoded) Step {
	cond := d.Cond
	pd1, pd2 := d.Pd1, d.Pd2
	if pd1 == ir.PTrue && pd2 == ir.PTrue {
		return nil
	}
	fa, fb := frRead(d.Fa), frRead(d.Fb)
	return func(x *Ctx) {
		r := fcmpResult(cond, fa(x), fb(x))
		if pd1 != ir.PTrue {
			x.Preds[pd1] = r
		}
		if pd2 != ir.PTrue {
			x.Preds[pd2] = !r
		}
	}
}

// fcmpResult evaluates an FP comparison. Floats have no unsigned order, so
// LTU and GEU fold onto LT and GE; every relation but NE is false on NaN.
func fcmpResult(cond ir.Cond, a, b float64) bool {
	switch cond {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT, ir.CondLTU:
		return a < b
	case ir.CondLE:
		return a <= b
	case ir.CondGT:
		return a > b
	case ir.CondGE, ir.CondGEU:
		return a >= b
	}
	return false
}
