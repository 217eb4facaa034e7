package ssp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
)

// randomPointerLoop generates a random but well-formed memory-bound loop:
// an induction cursor walks a table of pointers into a shuffled record heap;
// the body mixes ALU ops, one-to-three dependent loads, predicated updates,
// and stores to a private accumulator region. Returns the program; its
// checksum is whatever the interpreter says (the property under test is
// adaptation-preserves-semantics, not a specific value).
func randomPointerLoop(r *rand.Rand) *ir.Program {
	n := 200 + r.Intn(400)
	p := ir.NewProgram("main")
	tblBase := uint64(0x100000)
	recBase := tblBase + uint64(n)*8 + 0x10000
	perm := r.Perm(n)
	for i := 0; i < n; i++ {
		rec := recBase + uint64(perm[i])*64
		p.SetWord(tblBase+uint64(i)*8, rec)
		p.SetWord(rec, recBase+uint64(perm[(i+7)%n])*64) // second-level ptr
		p.SetWord(rec+8, uint64(r.Intn(1<<30)))
		p.SetWord(rec+16, uint64(r.Intn(1<<30)))
	}
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(tblBase))
	e.MovI(15, int64(tblBase+uint64(n)*8))
	e.MovI(20, 0)
	e.MovI(21, 0)
	loop := fb.Block("loop")
	loop.Nop()
	loop.Ld(16, 14, 0) // rec
	depth := 1 + r.Intn(2)
	cur := ir.Reg(16)
	for d := 0; d < depth; d++ {
		next := ir.Reg(22 + d)
		loop.Ld(next, cur, 0) // chase
		cur = next
	}
	loop.Ld(17, cur, 8) // the likely-delinquent value load
	// Random ALU shuffle over accumulators.
	for k := 0; k < 2+r.Intn(5); k++ {
		switch r.Intn(4) {
		case 0:
			loop.Add(20, 20, 17)
		case 1:
			loop.XorI(21, 21, int64(r.Intn(1<<12)))
		case 2:
			loop.Add(21, 21, 20)
		case 3:
			loop.CmpI(ir.CondLT, 8, 9, 17, int64(r.Intn(1<<29)))
			loop.On(8).AddI(20, 20, 3)
		}
	}
	if r.Intn(2) == 0 {
		// A store into a private region (never read back by the loop).
		loop.MovI(26, int64(0x8000))
		loop.St(26, 0, 20)
	}
	loop.AddI(14, 14, 8)
	loop.Cmp(ir.CondLT, 6, 7, 14, 15)
	loop.On(6).Br("loop")
	done := fb.Block("done")
	done.MovI(28, 0x2000)
	done.Add(20, 20, 21)
	done.St(28, 0, 20)
	done.Halt()
	return p
}

// TestQuickAdaptPreservesSemantics: property — for random pointer loops, the
// adapted binary computes exactly the same result on both machine models,
// under every option combination.
func TestQuickAdaptPreservesSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := tinyConfig()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := randomPointerLoop(r)
		img, err := ir.Link(p)
		if err != nil {
			t.Log(err)
			return false
		}
		ref, err := sim.InterpretPredecoded(cfg, sim.Predecode(img), 100_000_000)
		if err != nil {
			t.Log(err)
			return false
		}
		want := ref.Mem.Load(0x2000)
		prof, err := profile.Collect(p, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		opt := DefaultOptions()
		opt.Chaining = r.Intn(4) != 0
		opt.LoopRotation = r.Intn(4) != 0
		opt.CondPrediction = r.Intn(4) != 0
		opt.SpeculativeSlicing = r.Intn(4) != 0
		if r.Intn(3) == 0 {
			opt.ChainUnroll = 2 + r.Intn(2)
		}
		enh, _, err := Adapt(p, prof, opt, "fuzz")
		if err != nil {
			t.Logf("seed %d: adapt: %v", seed, err)
			return false
		}
		for _, mc := range []sim.Config{cfg, oooTiny()} {
			img2, err := ir.Link(enh)
			if err != nil {
				t.Logf("seed %d: link: %v", seed, err)
				return false
			}
			m := sim.New(mc, img2)
			res, err := m.Run()
			if err != nil || res.TimedOut {
				t.Logf("seed %d: run: %v timeout=%v", seed, err, res != nil && res.TimedOut)
				return false
			}
			if got := m.Mem.Load(0x2000); got != want {
				t.Logf("seed %d (%v): checksum %d, want %d\nopts: %+v", seed, mc.Model, got, want, opt)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func oooTiny() sim.Config {
	c := sim.DefaultOOO()
	c.Mem.L1Size = 1 << 10
	c.Mem.L2Size = 4 << 10
	c.Mem.L3Size = 16 << 10
	c.MaxCycles = 200_000_000
	return c
}
