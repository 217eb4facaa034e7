package sim_test

import (
	"runtime"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
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
// pages machines install by page copy; a second copy of the words (a word
// map, a pre-paged snapshot) would double it.
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
