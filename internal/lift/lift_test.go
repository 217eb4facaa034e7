package lift

import (
	"crypto/sha256"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

func tinyConfig() sim.Config {
	c := sim.DefaultInOrder()
	c.Mem.L1Size = 1 << 10
	c.Mem.L2Size = 4 << 10
	c.Mem.L3Size = 16 << 10
	c.MaxCycles = 200_000_000
	return c
}

// digest is the content address of p's linked image: every decoded field,
// every block leader and the data image.
func digest(t *testing.T, p *ir.Program) [sha256.Size]byte {
	t.Helper()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return sim.Predecode(img).Digest()
}

// relift returns Lift(Link(p)).
func relift(t *testing.T, p *ir.Program) *ir.Program {
	t.Helper()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Lift(img)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestLiftRoundTripsEveryBenchmark: on every benchmark, the binary-only flow
// keeps the image exactly. Relinking the lifted original gives the original
// image, and it still computes the benchmark's checksum. Profiling and
// adapting the lifted original gives the image adapting the source program
// gives. Relinking the lifted adapted program gives the adapted image; only
// this direction lifts chk.c, spawn, stub and slice blocks.
func TestLiftRoundTripsEveryBenchmark(t *testing.T) {
	for _, s := range workloads.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			t.Parallel()
			p, want := s.Build(s.TestScale / 2)
			lifted := relift(t, p)
			if digest(t, lifted) != digest(t, p) {
				t.Fatal("relinked lifted original differs from the original image")
			}
			img, err := ir.Link(lifted)
			if err != nil {
				t.Fatal(err)
			}
			m := sim.New(tinyConfig(), img)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			if got := m.Mem.Load(workloads.ResultAddr); got != want {
				t.Fatalf("lifted checksum = %d, want %d", got, want)
			}

			var adapted [2]*ir.Program
			for i, q := range []*ir.Program{p, lifted} {
				prof, err := profile.Collect(q, tinyConfig())
				if err != nil {
					t.Fatal(err)
				}
				var rep *ssp.Report
				if adapted[i], rep, err = ssp.Adapt(q, prof, ssp.DefaultOptions(), s.Name); err != nil {
					t.Fatal(err)
				}
				if rep.NumSlices() == 0 {
					t.Fatal("no slices: the adapted round trip would lift no chk.c, spawn or slice block")
				}
			}
			if digest(t, adapted[1]) != digest(t, adapted[0]) {
				t.Fatal("adapting the lifted original gives another image than adapting the source")
			}
			if digest(t, relift(t, adapted[0])) != digest(t, adapted[0]) {
				t.Fatal("relinked lifted adapted program differs from the adapted image")
			}
		})
	}
}

func TestLiftRecoversFunctionsAndLoops(t *testing.T) {
	spec, _ := workloads.ByName("health")
	p, _ := spec.Build(spec.TestScale / 2)
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := Lift(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(lifted.Funcs) != len(p.Funcs) {
		t.Fatalf("recovered %d functions, want %d", len(lifted.Funcs), len(p.Funcs))
	}
	if lifted.FuncByName("sum_list") == nil {
		t.Fatal("symbol name not preserved")
	}
	// The main loop's back edge must be recoverable as a block label.
	mainFn := lifted.FuncByName("main")
	if mainFn == nil || len(mainFn.Blocks) < 3 {
		t.Fatalf("main not recovered with blocks: %+v", mainFn)
	}
}

func TestLiftedBinaryIsAdaptable(t *testing.T) {
	// The full binary-translation flow the paper anticipates: raw image ->
	// lift -> profile -> SSP adapt -> relink -> faster binary.
	spec, _ := workloads.ByName("mcf")
	p, want := spec.Build(spec.TestScale)
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := Lift(img)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.Collect(lifted, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	enh, rep, err := ssp.Adapt(lifted, prof, ssp.DefaultOptions(), "lifted-mcf")
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumSlices() == 0 {
		t.Fatal("no slices on the lifted binary")
	}
	img2, err := ir.Link(enh)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.New(tinyConfig(), img).Run()
	if err != nil {
		t.Fatal(err)
	}
	m := sim.New(tinyConfig(), img2)
	fast, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(workloads.ResultAddr); got != want {
		t.Fatalf("adapted lifted binary checksum = %d, want %d", got, want)
	}
	speedup := float64(base.Cycles) / float64(fast.Cycles)
	if speedup < 1.3 {
		t.Fatalf("lifted-then-adapted speedup = %.2f, want >= 1.3", speedup)
	}
	t.Logf("lifted mcf: %.2fx with %d slices", speedup, rep.NumSlices())
}

func TestLiftRejectsEmptyImage(t *testing.T) {
	if _, err := Lift(&ir.Image{}); err == nil {
		t.Fatal("Lift accepted an empty image")
	}
}
