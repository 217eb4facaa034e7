package workloads

import (
	"fmt"
	"math/rand"

	"ssp/internal/ir"
)

// RandomProgram builds a seeded, always-terminating, pointer-chasing
// microbenchmark with a randomized CFG: an outer loop whose cursor strictly
// increases (so it cannot diverge), a pointer chase of random depth over a
// shuffled record heap, a random ALU mix over two accumulators, and —
// seed-dependent — branch diamonds, bounded inner loops, predicated stores to
// a private region, and calls to a leaf function that uses a disjoint
// register range. Programs avoid the SSP-reserved scratch registers
// (ssp.ScratchGR, p62/p63) so they are always adaptable, and every program
// stores its checksum to ResultAddr and halts, like the named workloads.
//
// The generator feeds every layer of internal/check: the same seed
// always yields the same program, so any violation is reproducible from the
// seed alone.
func RandomProgram(seed int64) *ir.Program {
	r := rand.New(rand.NewSource(seed))
	n := 96 + r.Intn(160)
	p := ir.NewProgram("main")

	// Data: a pointer table into a shuffled record heap, two levels deep.
	tblBase := heapBase
	recBase := tblBase + uint64(n)*8 + 0x10000
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		rec := recBase + uint64(perm[i])*64
		p.SetWord(tblBase+uint64(i)*8, rec)
		p.SetWord(rec, recBase+uint64(perm[(i+11)%n])*64) // next pointer
		p.SetWord(rec+8, uint64(r.Intn(1<<30)))
		p.SetWord(rec+16, uint64(r.Intn(1<<30)))
	}

	withCall := r.Intn(3) == 0
	if withCall {
		// Leaf callee on a register range (r40+) disjoint from the caller's
		// live set, so the call clobbers nothing the loop depends on.
		lf := ir.NewFunc(p, "leaf")
		lb := lf.Block("entry")
		lb.Ld(40, ir.RegArg0, 8)
		lb.Ld(41, ir.RegArg0, 16)
		lb.Add(ir.RegRet, 40, 41)
		if r.Intn(2) == 0 {
			lb.XorI(ir.RegRet, ir.RegRet, int64(1+r.Intn(1<<12)))
		}
		lb.Ret(0)
	}

	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(tblBase))             // cursor
	e.MovI(15, int64(tblBase+uint64(n)*8)) // end
	e.MovI(20, 0)                          // accumulator A
	e.MovI(21, int64(r.Intn(1<<16)))       // accumulator B
	e.MovI(27, 0x8000)                     // private spill region

	bb := fb.Block("loop")
	bb.Nop() // trigger padding
	bb.Ld(16, 14, 0)
	cur := ir.Reg(16)
	for d, depth := 0, 1+r.Intn(3); d < depth; d++ {
		next := ir.Reg(22 + d)
		bb.Ld(next, cur, 0) // chase
		cur = next
	}
	bb.Ld(17, cur, 8) // the likely-delinquent value load
	mixALU(r, bb)

	// Seed-dependent CFG features inside the body.
	for k, diamonds := 0, r.Intn(3); k < diamonds; k++ {
		thenL := fmt.Sprintf("then%d", k)
		joinL := fmt.Sprintf("join%d", k)
		bb.CmpI(ir.CondLT, 10, 11, 17, int64(r.Intn(1<<29)))
		bb.On(10).Br(thenL)
		els := fb.Block(fmt.Sprintf("else%d", k))
		mixALU(r, els)
		els.Br(joinL)
		then := fb.Block(thenL)
		mixALU(r, then) // falls through to the join
		bb = fb.Block(joinL)
	}
	if r.Intn(3) == 0 {
		// Bounded inner loop: the trip counter strictly decreases.
		bb.MovI(25, int64(2+r.Intn(5)))
		inner := fb.Block("inner")
		inner.Add(21, 21, 20)
		inner.XorI(20, 20, int64(1+r.Intn(1<<12)))
		inner.AddI(25, 25, -1)
		inner.CmpI(ir.CondGT, 8, 9, 25, 0)
		inner.On(8).Br("inner")
		bb = fb.Block("innerdone")
	}
	if withCall {
		bb.Mov(ir.RegArg0, cur)
		bb.Call("leaf")
		bb.Add(20, 20, ir.RegRet)
	}
	switch r.Intn(3) {
	case 0:
		bb.St(27, 0, 20)
	case 1:
		bb.CmpI(ir.CondLT, 12, 13, 20, int64(r.Intn(1<<29)))
		bb.On(12).St(27, 8, 21)
	}

	bb.AddI(14, 14, 8)
	bb.Cmp(ir.CondLT, 6, 7, 14, 15)
	bb.On(6).Br("loop")

	// Seed-dependent second hot phase: a strided two-hop walk over its own
	// shuffled heap, so a quarter of the seed space exercises the multi-slice
	// portfolio path (two hot regions, two triggers) in every differential
	// sweep. Drawn after every other decision so the other three quarters of
	// the seed space build byte-identical programs to the single-phase
	// generator.
	if r.Intn(4) == 0 {
		p2Base := recBase + uint64(n)*64 + 0x10000
		heap2 := p2Base + uint64(n)*8 + 0x10000
		perm2 := r.Perm(n)
		for i := 0; i < n; i++ {
			rec := heap2 + uint64(perm2[i])*64
			p.SetWord(p2Base+uint64(i)*8, rec)
			p.SetWord(rec+8, heap2+uint64(perm2[(i+17)%n])*64)
			p.SetWord(rec+16, uint64(r.Intn(1<<30)))
		}
		mid := fb.Block("phase2")
		mid.MovI(14, int64(p2Base))
		mid.MovI(15, int64(p2Base+uint64(n)*8))
		l2 := fb.Block("loop2")
		l2.Nop() // trigger padding
		l2.Ld(16, 14, 0)
		l2.Ld(17, 16, 8)  // mate pointer (delinquent)
		l2.Ld(18, 17, 16) // mate value (delinquent)
		l2.Add(20, 20, 18)
		l2.AddI(14, 14, 8)
		l2.Cmp(ir.CondLT, 6, 7, 14, 15)
		l2.On(6).Br("loop2")
	}

	done := fb.Block("done")
	done.Add(20, 20, 21)
	epilogue(done, 20)
	return p
}

// RandomMulti builds a seeded multi-phase pointer-chasing benchmark with an
// analytic checksum: `phases` sequential hot loops, each walking its own
// pointer table into its own shuffled record heap with a seed-dependent chase
// depth. Iteration counts decay by phase (phase k runs n/(k+1) trips), so
// phase 0 dominates the miss profile — the asymmetry the closed-loop tuner
// uses to surface a fresh region on re-profiling. Each phase's backward slice
// lands inside the paper's Table 2 envelope (7-15 instructions, 1 live-in).
func RandomMulti(seed int64, phases, n int) (*ir.Program, uint64) {
	r := rand.New(rand.NewSource(seed))
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(20, 0) // checksum accumulator, live across phases

	cursor := heapBase
	var want uint64
	prev := e
	for k := 0; k < phases; k++ {
		nk := n / (k + 1)
		if nk < 8 {
			nk = 8
		}
		depth := 2 + r.Intn(2) // chase hops; slice size = depth + 5
		salt := uint64(1 + r.Intn(1<<12))
		tbl := cursor
		cursor += uint64(nk)*8 + 0x10000
		heapK := cursor
		cursor += uint64(nk)*64 + 0x10000
		perm := r.Perm(nk)
		addr := func(j int) uint64 { return heapK + uint64(perm[j])*64 }
		for j := 0; j < nk; j++ {
			p.SetWord(tbl+uint64(j)*8, addr(j))
			p.SetWord(addr(j), addr((j+11)%nk))
			p.SetWord(addr(j)+8, uint64(j*13)+salt)
		}
		for j := 0; j < nk; j++ {
			want += uint64(((j+11*depth)%nk)*13) + salt
		}

		prev.MovI(14, int64(tbl))
		prev.MovI(15, int64(tbl+uint64(nk)*8))
		loopL := fmt.Sprintf("phase%d", k)
		l := fb.Block(loopL)
		l.Nop()         // trigger padding
		l.Ld(16, 14, 0) // rec = tbl[i]
		cur := ir.Reg(16)
		for d := 0; d < depth; d++ {
			next := ir.Reg(17 + d)
			l.Ld(next, cur, 0) // chase (delinquent)
			cur = next
		}
		l.Ld(21, cur, 8) // value (delinquent)
		l.Add(20, 20, 21)
		l.AddI(14, 14, 8)
		l.Cmp(ir.CondLT, 6, 7, 14, 15)
		l.On(6).Br(loopL)
		prev = fb.Block(fmt.Sprintf("mid%d", k))
	}
	epilogue(prev, 20)
	return p, want
}

// Rand2p promotes a two-phase RandomMulti instance to a first-class
// benchmark: two hot loops with independent delinquent chains, phase 0
// carrying twice the trips of phase 1.
func Rand2p() Spec {
	return Spec{
		Name:        "rand.2p",
		Description: "seeded two-phase pointer-table chase with decaying phase weights",
		Scale:       30000,
		TestScale:   1000,
		MinSlices:   2,
		Build: func(n int) (*ir.Program, uint64) {
			return RandomMulti(12001, 2, n)
		},
	}
}

// Rand3p is the three-phase member of the RandomMulti family.
func Rand3p() Spec {
	return Spec{
		Name:        "rand.3p",
		Description: "seeded three-phase pointer-table chase with decaying phase weights",
		Scale:       24000,
		TestScale:   900,
		MinSlices:   3,
		Build: func(n int) (*ir.Program, uint64) {
			return RandomMulti(12002, 3, n)
		},
	}
}

// mixALU emits a short random accumulator shuffle over r20/r21 fed by the
// loaded value in r17.
func mixALU(r *rand.Rand, bb *ir.BlockBuilder) {
	for k, ops := 0, 2+r.Intn(4); k < ops; k++ {
		switch r.Intn(5) {
		case 0:
			bb.Add(20, 20, 17)
		case 1:
			bb.XorI(21, 21, int64(r.Intn(1<<12)))
		case 2:
			bb.Add(21, 21, 20)
		case 3:
			bb.ShrI(19, 17, int64(1+r.Intn(4)))
			bb.Add(20, 20, 19)
		case 4:
			bb.CmpI(ir.CondLT, 8, 9, 17, int64(r.Intn(1<<29)))
			bb.On(8).AddI(20, 20, 3)
		}
	}
}
