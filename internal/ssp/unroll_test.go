package ssp

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/workloads"
)

func TestChainUnrollPreservesResults(t *testing.T) {
	for _, name := range []string{"mcf", "em3d", "vpr", "treeadd.bf", "health"} {
		name := name
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions()
			opt.ChainUnroll = 2
			_, enh, _, want := adaptWorkload(t, name, opt)
			got, res := runChecksum(t, enh, tinyConfig())
			if got != want {
				t.Fatalf("unrolled checksum = %d, want %d", got, want)
			}
			_ = res
		})
	}
}

func TestChainUnrollEmitsReplicatedBody(t *testing.T) {
	opt := DefaultOptions()
	opt.ChainUnroll = 2
	_, enh, rep, _ := adaptWorkload(t, "mcf", opt)
	if rep.NumSlices() == 0 {
		t.Fatal("no slices")
	}
	var sliceBlock *ir.Block
	for _, b := range enh.FuncByName("main").Blocks {
		if b.Label == "ssp_slice_0" {
			sliceBlock = b
		}
	}
	if sliceBlock == nil {
		t.Fatal("no slice block")
	}
	lfetches, spawns := 0, 0
	for _, in := range sliceBlock.Instrs {
		switch in.Op {
		case ir.OpLfetch:
			lfetches++
		case ir.OpSpawn:
			spawns++
		}
	}
	// mcf has two delinquent prefetches per iteration; unroll=2 doubles
	// them while keeping one chained spawn.
	if lfetches < 4 {
		t.Fatalf("unrolled slice has %d prefetches, want >= 4", lfetches)
	}
	if spawns != 1 {
		t.Fatalf("unrolled slice has %d spawns, want 1", spawns)
	}
}

func TestChainUnrollImprovesMcf(t *testing.T) {
	// The unrolled chain must not lose to the single-iteration chain on
	// the benchmark the hand adaptation unrolled (§4.5) — it amortizes
	// spawn overhead and doubles per-thread prefetch work.
	orig, enh1, _, _ := adaptWorkload(t, "mcf", DefaultOptions())
	opt := DefaultOptions()
	opt.ChainUnroll = 2
	_, enh2, _, _ := adaptWorkload(t, "mcf", opt)
	_, base := runChecksum(t, orig, tinyConfig())
	_, r1 := runChecksum(t, enh1, tinyConfig())
	_, r2 := runChecksum(t, enh2, tinyConfig())
	s1 := float64(base.Cycles) / float64(r1.Cycles)
	s2 := float64(base.Cycles) / float64(r2.Cycles)
	t.Logf("mcf: unroll=1 %.2fx, unroll=2 %.2fx", s1, s2)
	if s2 < s1*0.97 {
		t.Fatalf("unrolling hurt: %.2f vs %.2f", s2, s1)
	}
}

func TestChainUnrollFallsBackWithoutFreeRegisters(t *testing.T) {
	// A program that touches (almost) every register leaves no pool; the
	// tool must fall back to the unrolled-by-one form, still correct.
	p := ir.NewProgram("main")
	base := uint64(0x100000)
	n := 600
	for i := 0; i < n; i++ {
		p.SetWord(base+uint64(i)*8+0x400000, base+uint64((i*2654435761)%n)*64)
	}
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	// Touch r1..r126 so the free pool is empty (r127 stays reserved).
	for r := 1; r < 127; r++ {
		if r == 12 {
			continue
		}
		e.MovI(ir.Reg(r), int64(r))
	}
	e.MovI(14, int64(base+0x400000))
	e.MovI(15, int64(base+0x400000+uint64(n)*8))
	e.MovI(20, 0)
	loop := fb.Block("loop")
	loop.Nop()
	loop.Ld(16, 14, 0)
	loop.Ld(17, 16, 8)
	loop.Add(20, 20, 17)
	loop.AddI(14, 14, 8)
	loop.Cmp(ir.CondLT, 6, 7, 14, 15)
	loop.On(6).Br("loop")
	done := fb.Block("done")
	done.MovI(28, int64(workloads.ResultAddr))
	done.St(28, 0, 20)
	done.Halt()

	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.InterpretPredecoded(tinyConfig(), sim.Predecode(img), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Mem.Load(workloads.ResultAddr)

	prof := collectProfile(t, p)
	opt := DefaultOptions()
	opt.ChainUnroll = 4
	enh, _, err := Adapt(p, prof, opt, "regpressure")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := runChecksum(t, enh, tinyConfig())
	if got != want {
		t.Fatalf("fallback checksum = %d, want %d", got, want)
	}
}
