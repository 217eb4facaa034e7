package workloads

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim"
)

// TestRandomProgramTerminates: every seeded program validates, links, and
// halts under functional interpretation — the generator may not emit
// divergent control flow.
func TestRandomProgramTerminates(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		p := RandomProgram(seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		img, err := ir.Link(p)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if _, err := sim.InterpretPredecoded(tinyConfig(), sim.Predecode(img), 50_000_000); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// TestRandomProgramDeterministic: the same seed always yields the same
// program — the property that makes a check violation reproducible from its
// seed alone.
func TestRandomProgramDeterministic(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		run := func() (int64, uint64) {
			img, err := ir.Link(RandomProgram(seed))
			if err != nil {
				t.Fatal(err)
			}
			r, err := sim.InterpretPredecoded(tinyConfig(), sim.Predecode(img), 50_000_000)
			if err != nil {
				t.Fatal(err)
			}
			return r.Instrs, r.Mem.Load(ResultAddr)
		}
		i1, c1 := run()
		i2, c2 := run()
		if i1 != i2 || c1 != c2 {
			t.Fatalf("seed %d: (%d,%d) != (%d,%d)", seed, i1, c1, i2, c2)
		}
	}
}
