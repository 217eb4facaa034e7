package sim_test

import (
	"runtime"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// bytesPerRun reports the average heap bytes one call of f allocates, on
// one P as testing.AllocsPerRun measures, after a warm-up call.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestSharedDataImageAllocs pins the cost of carrying a data image through
// the pipeline to zero: once an image has been predecoded, taking an
// adapted program that shares it through Clone, Link, Predecode, and Digest
// — what every tuner round and every options job does — allocates for its
// code only. The adapted mcf code is given two data images, mcf's own at
// test scale and one 16 times larger; both must cost the same bytes, within
// a small slack, and well under the larger image's words.
func TestSharedDataImageAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := spec.Build(spec.TestScale)
	cfg := sim.DefaultInOrder()
	cfg.UseTinyMem()
	prof, err := profile.Collect(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	big, _ := spec.Build(16 * spec.TestScale)

	cost := func(data *ir.DataImage) uint64 {
		prog := adapted.Clone()
		prog.Data = data
		pipeline := func() {
			img, err := ir.Link(prog.Clone())
			if err != nil {
				t.Fatal(err)
			}
			sim.Predecode(img).Digest()
		}
		pipeline() // predecode the image once: its snapshot and hash
		return bytesPerRun(4, pipeline)
	}
	small, large := cost(p.Data), cost(big.Data)
	t.Logf("%d instrs: %d B/run with %d data words, %d B/run with %d",
		adapted.NumInstrs(), small, p.Data.Len(), large, big.Data.Len())
	if large > small+small/16 {
		t.Errorf("a 16x larger data image costs %d B/run, against %d: the pipeline allocates for data", large, small)
	}
	if limit := uint64(big.Data.Len()) * 8 / 4; large > limit {
		t.Errorf("%d B/run, over a quarter of the image's %d words", large, big.Data.Len())
	}
	if perInstr := large / uint64(adapted.NumInstrs()); perInstr > 2048 {
		t.Errorf("%d B/run per instruction, ceiling 2048", perInstr)
	}
}

// liveHeap returns the live heap's size after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestDataImageHeapAllocs bounds what a program's data costs to keep: it
// takes paper-scale mcf through build, Link, Predecode, and Digest, and the
// heap all that retains must stay within 1.25 times the cost of the data
// image's pages and their presence masks. The data is stored once, as the
// pages machines map when they install it; a second copy of the words (a
// word map, a pre-paged snapshot) would double it.
func TestDataImageHeapAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	before := liveHeap()
	p, _ := spec.Build(spec.Scale)
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	dp := sim.Predecode(img)
	dp.Digest()
	retained := liveHeap() - before
	runtime.KeepAlive(dp)

	words, pages := p.Data.Len(), p.Data.Pages()
	pageCost := uint64(pages) * (4096 + 64)
	t.Logf("%d words on %d pages: retained %d B, %.1f B/word; pages and masks %.1f B/word",
		words, pages, retained, float64(retained)/float64(words), float64(pageCost)/float64(words))
	if limit := pageCost + pageCost/4; retained > limit {
		t.Errorf("retained %d B, over 1.25x the %d B its pages cost", retained, pageCost)
	}
}

// BenchmarkDataImageStages times, on paper-scale mcf whose image has been
// predecoded once, the three steps every adapted binary takes that once
// handled the whole data image: Clone (what ssp.Adapt does to the
// original), Link + Predecode of the clone, and Digest. Each shares the
// sealed image by pointer, so none of them should cost in proportion to
// its words.
func BenchmarkDataImageStages(b *testing.B) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	p, _ := spec.Build(spec.Scale)
	img, err := ir.Link(p)
	if err != nil {
		b.Fatal(err)
	}
	dp := sim.Predecode(img)
	dp.Digest()
	b.Run("clone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Clone()
		}
	})
	b.Run("predecode", func(b *testing.B) {
		q := p.Clone()
		for i := 0; i < b.N; i++ {
			img, err := ir.Link(q)
			if err != nil {
				b.Fatal(err)
			}
			sim.Predecode(img)
		}
	})
	b.Run("digest", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dp.Digest()
		}
	})
}

// storePages is an exec hook that records the page of every store the main
// thread executes with its predicate true: the pages a run stores to.
type storePages map[uint64]bool

func (s storePages) Exec(m *sim.Machine, t *sim.Thread, pc int) {
	in := &m.Img.Code[pc].I
	if t.Speculative() || (in.Op != ir.OpSt && in.Op != ir.OpFSt) || (in.Qp != ir.PTrue && !t.Preds[in.Qp]) {
		return
	}
	s[(t.Regs[in.Ra]+uint64(in.Disp))>>12] = true
}

// TestMachineMemoryAllocs pins the cost of a data image to a machine at
// zero: an installed image is mapped, not copied, and a machine owns only
// the pages its run stores to. It checks that
//   - a pooled machine's Reset+Run, and a fresh machine's construction and
//     Run, cost the same bytes, within a small slack, over mcf's test-scale
//     image and over one 16 times larger (the runs touch the same pages);
//   - after a run, the machine owns exactly the pages the run stored to,
//     on both engines, for a benchmark that stores to one page (mcf) and
//     for ones that store into their heaps (em3d, treeadd.bf).
//
// TestEngineSteadyStateAllocs and TestInterpretAllocs keep their ceilings
// on top of this.
func TestMachineMemoryAllocs(t *testing.T) {
	if sim.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := spec.Build(spec.TestScale)
	big, _ := spec.Build(16 * spec.TestScale)
	cfg := sim.DefaultInOrder()
	cfg.UseTinyMem()
	predecode := func(data *ir.DataImage) *decode.Program {
		prog := p.Clone()
		prog.Data = data
		img, err := ir.Link(prog)
		if err != nil {
			t.Fatal(err)
		}
		return sim.Predecode(img)
	}
	run := func(m *sim.Machine) {
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
	}
	pooled := func(dp *decode.Program) uint64 {
		m := sim.NewPredecoded(cfg, dp)
		return bytesPerRun(4, func() {
			m.Reset(cfg, dp)
			run(m)
		})
	}
	fresh := func(dp *decode.Program) uint64 {
		return bytesPerRun(4, func() { run(sim.NewPredecoded(cfg, dp)) })
	}
	smallDP, bigDP := predecode(p.Data), predecode(big.Data)
	for _, c := range []struct {
		name string
		cost func(*decode.Program) uint64
	}{{"pooled", pooled}, {"fresh", fresh}} {
		small, large := c.cost(smallDP), c.cost(bigDP)
		t.Logf("%s: %d B/run over %d data pages, %d B/run over %d", c.name, small, p.Data.Pages(), large, big.Data.Pages())
		if large > small+small/16 {
			t.Errorf("%s machine: %d B/run over a 16x larger image, against %d: the machine copies the image", c.name, large, small)
		}
	}

	for _, name := range []string{"mcf", "em3d", "treeadd.bf"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		prog, _ := spec.Build(spec.TestScale)
		img, err := ir.Link(prog)
		if err != nil {
			t.Fatal(err)
		}
		dp := sim.Predecode(img)
		for _, cfg := range []sim.Config{sim.DefaultInOrder(), sim.DefaultOOO()} {
			cfg.UseTinyMem()
			m := sim.NewPredecoded(cfg, dp)
			for rerun := 0; rerun < 2; rerun++ {
				if rerun > 0 {
					m.Reset(cfg, dp)
				}
				stored := storePages{}
				m.AttachExec(stored)
				run(m)
				if rerun == 0 {
					t.Logf("%s/%s: stored to %d of %d resident pages", name, cfg.Model, len(stored), m.Mem.Footprint())
				}
				if got := m.Mem.Owned(); got != len(stored) {
					t.Errorf("%s/%s run %d: machine owns %d pages, the run stored to %d", name, cfg.Model, rerun, got, len(stored))
				}
				if m.Mem.Footprint() < prog.Data.Pages() {
					t.Errorf("%s/%s: footprint %d, under the image's %d pages", name, cfg.Model, m.Mem.Footprint(), prog.Data.Pages())
				}
			}
		}
	}
}
