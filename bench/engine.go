package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/workloads"
)

// Kernel sizes: the ALU loop is the internal/sim aluProgram shape at 2 M
// iterations; the branchy loop is sized to a similar in-order run time.
const (
	aluIters     = 2_000_000
	branchyIters = 400_000
	smokeIters   = 50_000
	branchyWords = 512 // 4 KiB of data: L1-resident on the 16 KiB L1
	branchyBase  = 0x100000
	// branchyLow masks the value bits the seed picks. Both branch
	// thresholds are multiples of branchyLow+1 and stores keep every bit
	// above it, so control flow — and the simulated timing — is the same
	// for every seed.
	branchyLow = 1<<20 - 1
)

// kernel is one engine-alu program with its reference answer.
type kernel struct {
	name string
	prog *ir.Program
	// regs are main-thread registers whose final values are known; want is
	// the value stored to workloads.ResultAddr (0 when the kernel stores
	// nothing).
	regs map[ir.Reg]uint64
	want uint64
	dp   *decode.Program
}

// aluKernel builds four independent add/xor/shift chains in a counted loop:
// straight-line pure integer work the threaded core fuses and the cycle
// engines batch-issue. Seeded constants change values, not timing.
func aluKernel(iters int, c, x, s int64) kernel {
	p := ir.NewProgram("main")
	f := ir.NewFunc(p, "main")
	e := f.Block("entry")
	e.MovI(14, 0)
	chains := []ir.Reg{15, 20, 25, 30}
	for j, r := range chains {
		e.MovI(r, int64(j+1))
	}
	e.MovI(16, c)
	loop := f.Block("loop")
	for _, r := range chains {
		loop.Add(r, r, 16)
	}
	for _, r := range chains {
		loop.XorI(r, r, x)
	}
	for _, r := range chains {
		loop.ShlI(r, r, s)
	}
	loop.AddI(14, 14, 1)
	loop.CmpI(ir.CondLT, 6, 7, 14, int64(iters))
	loop.On(6).Br("loop")
	f.Block("exit").Halt()

	regs := map[ir.Reg]uint64{14: uint64(iters)}
	for j, r := range chains {
		v := uint64(j + 1)
		for i := 0; i < iters; i++ {
			v = ((v + uint64(c)) ^ uint64(x)) << uint(s)
		}
		regs[r] = v
	}
	return kernel{name: "alu", prog: p, regs: regs}
}

// branchyKernel walks an L1-resident array with a data-dependent diamond,
// a call to a leaf function, and a predicated store back into the array.
// The thresholds must be multiples of branchyLow+1.
func branchyKernel(iters int, data []uint64, thr, storeThr, k int64) kernel {
	p := ir.NewProgram("main")
	lf := ir.NewFunc(p, "leaf")
	lb := lf.Block("entry")
	lb.MulI(ir.RegRet, ir.RegArg0, 3)
	lb.XorI(ir.RegRet, ir.RegRet, k)
	lb.Ret(0)

	f := ir.NewFunc(p, "main")
	e := f.Block("entry")
	e.MovI(14, 0)
	e.MovI(20, 0)
	e.MovI(26, branchyBase)
	e.MovI(27, thr)
	e.MovI(28, storeThr)
	loop := f.Block("loop")
	loop.AndI(16, 14, branchyWords-1)
	loop.ShlI(17, 16, 3)
	loop.Add(18, 26, 17)
	loop.Ld(19, 18, 0)
	loop.Cmp(ir.CondLT, 8, 9, 19, 27)
	loop.On(8).Br("then")
	els := f.Block("else")
	els.Xor(20, 20, 19)
	els.ShrI(21, 19, 1)
	els.Add(20, 20, 21)
	els.Br("join")
	then := f.Block("then")
	then.Add(20, 20, 19)
	join := f.Block("join")
	join.Mov(ir.RegArg0, 19)
	join.Call("leaf")
	join.Add(20, 20, ir.RegRet)
	join.AndI(22, 20, branchyLow)
	join.AndI(23, 19, ^int64(branchyLow))
	join.Or(22, 22, 23)
	join.Cmp(ir.CondGT, 10, 11, 19, 28)
	join.On(10).St(18, 0, 22)
	join.AddI(14, 14, 1)
	join.CmpI(ir.CondLT, 6, 7, 14, int64(iters))
	join.On(6).Br("loop")
	x := f.Block("exit")
	x.MovI(29, int64(workloads.ResultAddr))
	x.St(29, 0, 20)
	x.Halt()

	mem := append([]uint64(nil), data...)
	for i, v := range data {
		p.SetWord(branchyBase+uint64(i)*8, v)
	}
	var sum uint64
	for i := 0; i < iters; i++ {
		idx := i & (branchyWords - 1)
		v := mem[idx]
		if int64(v) < thr {
			sum += v
		} else {
			sum ^= v
			sum += v >> 1
		}
		sum += (v * 3) ^ uint64(k)
		if int64(v) > storeThr {
			mem[idx] = sum&branchyLow | v&^branchyLow
		}
	}
	return kernel{name: "branchy", prog: p, regs: map[ir.Reg]uint64{14: uint64(iters)}, want: sum}
}

// engineKernels builds the two kernels from the seed.
func engineKernels(e *env) []kernel {
	r := e.rng(2)
	alu, br := aluIters, branchyIters
	if e.smoke {
		alu, br = smokeIters, smokeIters/4
	}
	high := rand.New(rand.NewSource(0x5eed))
	data := make([]uint64, branchyWords)
	for i := range data {
		data[i] = uint64(high.Int63n(1<<10))<<20 | uint64(r.Int63n(branchyLow+1))
	}
	return []kernel{
		aluKernel(alu, 0x9e37+r.Int63n(1<<16), 1+r.Int63n(1<<15), 1+r.Int63n(5)),
		branchyKernel(br, data, 1<<29, 3<<28, 1+r.Int63n(1<<12)),
	}
}

// engineModels are the engines each kernel runs on, in op order.
var engineModels = []string{"interp", "in-order", "ooo"}

// runEngine runs each kernel on the interpreter and both cycle engines.
func runEngine(e *env) (*outcome, error) {
	o := &outcome{Workload: "engine-alu"}
	kernels := engineKernels(e)
	cfgs := exp.NewSuite(exp.ScalePaper)
	var pool sim.Pool

	setupS, err := e.setup(5, func() error { return decodeKernels(stages{}, Active{}, kernels) })
	if err != nil {
		return nil, err
	}
	runUnit := func(st stages, m *meter) (unit, error) {
		var u unit
		for _, k := range kernels {
			for _, model := range engineModels {
				var cycles int64
				var err error
				op := st.tr.Start("kernel", Active{})
				u.latencies = append(u.latencies, m.time(func() { cycles, err = runKernel(st, op, cfgs, &pool, k, model) }))
				op.End(nil)
				m.calibrate(1)
				if err != nil {
					o.fail("%s/%s: %v", k.name, model, err)
				}
				u.cycles += cycles
				u.ops++
			}
		}
		return u, nil
	}
	units, _ := e.measure(func(_ int, m *meter) (unit, error) { return runUnit(stages{}, m) })
	o.endToEnd(setupS, units)

	if e.traced {
		tr, agg := NewTracer(), newSimAgg()
		st := stages{tr, agg}
		root := tr.Start("setup", Active{})
		err := decodeKernels(st, root, kernels)
		root.End(nil)
		if err != nil {
			return nil, err
		}
		u, _ := e.once(func(m *meter) (unit, error) { return runUnit(st, m) })
		o.Attempted += u.ops
		spans := tr.Spans()
		spanLayers(o, spans)
		agg.layers(o)
		o.set("trace.overhead_share", u.wall()/o.mustValue("wall_s")-1)
		e.spans = append(e.spans, spans...)
	}
	return o, nil
}

// decodeKernels links, predecodes and compiles every kernel afresh.
func decodeKernels(st stages, parent Active, kernels []kernel) error {
	for i := range kernels {
		dp, err := st.decode(parent, kernels[i].prog)
		if err != nil {
			return fmt.Errorf("%s: %w", kernels[i].name, err)
		}
		kernels[i].dp = dp
	}
	return nil
}

// runKernel runs one kernel on one engine and checks its architectural
// outcome against the Go reference. It returns the simulated cycles (0 for
// the interpreter).
func runKernel(st stages, parent Active, cfgs *exp.Suite, pool *sim.Pool, k kernel, model string) (int64, error) {
	var regs [ir.NumRegs]uint64
	var cycles int64
	switch model {
	case "interp":
		sp := st.tr.Start("sim.run.interp", parent)
		t0 := time.Now()
		r, err := sim.InterpretPredecoded(cfgs.MachineConfig(sim.InOrder), k.dp, 1<<40)
		d := time.Since(t0)
		sp.End(nil)
		if err != nil {
			return 0, err
		}
		st.agg.addInterp(d, r.Instrs)
		if got := r.Mem.Load(workloads.ResultAddr); got != k.want {
			return 0, fmt.Errorf("result %d, want %d", got, k.want)
		}
		regs = r.Regs
	default:
		m := sim.InOrder
		if model == "ooo" {
			m = sim.OOO
		}
		res, err := st.simulate(context.Background(), parent, pool, cfgs.MachineConfig(m), k.dp, &k.want)
		if err != nil {
			return 0, err
		}
		regs, cycles = res.FinalRegs, res.Cycles
	}
	for r, want := range k.regs {
		if regs[r] != want {
			return cycles, fmt.Errorf("r%d = %d, want %d", r, regs[r], want)
		}
	}
	return cycles, nil
}
