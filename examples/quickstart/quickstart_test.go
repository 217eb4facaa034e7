// Package quickstart_test is the Figure 1 flow in one function: build a
// pointer-chasing kernel in the IR, profile it, run the post-pass SSP tool,
// and measure the speedup on the in-order research Itanium model. Run it
// with: go test -v ./examples/quickstart
package quickstart_test

import (
	"fmt"
	"log"
	"math/rand"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/ssp"
)

func Example() {
	// 1. A "first compilation pass" output: a loop summing a field of
	//    records reached through a pointer array, with records scattered
	//    over a working set eight times the size of the test memory
	//    system's 16 KB L3.
	const n = 2000
	p := ir.NewProgram("main")
	ptrBase := uint64(0x100000)
	recBase := ptrBase + n*8 + 0x10000
	perm := rand.New(rand.NewSource(1)).Perm(n)
	for i := 0; i < n; i++ {
		rec := recBase + uint64(perm[i])*64
		p.SetWord(ptrBase+uint64(i)*8, rec)
		p.SetWord(rec+8, uint64(i))
	}
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(ptrBase))
	e.MovI(15, int64(ptrBase+n*8))
	e.MovI(20, 0)
	loop := fb.Block("loop")
	loop.Nop()           // padding the tool will turn into the chk.c trigger
	loop.Ld(16, 14, 0)   // rec = ptrs[i]
	loop.Ld(17, 16, 8)   // rec->field        <- the delinquent load
	loop.Add(20, 20, 17) // sum += field
	loop.AddI(14, 14, 8)
	loop.Cmp(ir.CondLT, 6, 7, 14, 15)
	loop.On(6).Br("loop")
	done := fb.Block("done")
	done.MovI(28, 0x2000)
	done.St(28, 0, 20)
	done.Halt()

	// 2. Profiling pass (Figure 1): identify delinquent loads, block
	//    frequencies, expected latencies.
	cfg := sim.DefaultInOrder()
	cfg.UseTinyMem()
	prof, err := profile.Collect(p, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delinquent loads (>=90%% of %d miss cycles): %v\n", prof.TotalMissCycles, ssp.RankTargets(p, prof, ssp.DefaultOptions()))

	// 3. Post-pass adaptation: slice, schedule, place triggers, attach.
	enh, rep, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), "quickstart")
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range rep.Slices {
		model := "basic"
		if s.Chaining {
			model = "chaining"
		}
		fmt.Printf("slice in %s: %s SP, %d instructions, %d live-ins\n", s.Region, model, s.Size, s.LiveIns)
	}

	// 4. Measure both binaries on the in-order model.
	run := func(prog *ir.Program) *sim.Result {
		img, err := ir.Link(prog)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.New(cfg, img).Run()
		if err == nil {
			err = res.Err() // the run rule: no watchdog expiry, no main-thread kill
		}
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	base, fast := run(p), run(enh)
	fmt.Printf("baseline: %d cycles (IPC %.3f)\n", base.Cycles, base.IPC())
	fmt.Printf("SSP:      %d cycles (IPC %.3f), %d speculative threads\n", fast.Cycles, fast.IPC(), fast.Spawns)
	fmt.Printf("speedup:  %.2fx\n", float64(base.Cycles)/float64(fast.Cycles))
	// Output:
	// delinquent loads (>=90% of 517800 miss cycles): [6 5]
	// slice in main:loop@b1: chaining SP, 5 instructions, 2 live-ins
	// baseline: 531957 cycles (IPC 0.026)
	// SSP:      138944 cycles (IPC 0.106), 2261 speculative threads
	// speedup:  3.83x
}
