package sim

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/workloads"
)

// allocProgram predecodes the mcf kernel at test scale once for the
// allocation-regression tests; allocs/run counts depend on the program's
// load-ID population, so the workload is fixed.
func allocProgram(t *testing.T) *decode.Program {
	t.Helper()
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := spec.Build(spec.TestScale)
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return Predecode(img)
}

// TestEngineSteadyStateAllocs pins the warm Reset+Run cycle of every
// cycle-level engine to a hard allocation ceiling. Once a machine has run a
// program, rerunning it (the exp.Suite pool's steady state) may allocate
// only the handful of objects that materialize the detached Result — the
// per-cycle path (threads, pending buffers, OOO window, memory hierarchy)
// must reuse its preallocated layout. Measured today: 12 allocs/run for all
// four configurations; the ceiling leaves no room for a per-access or
// per-cycle allocation to creep back in, which would show up as thousands.
func TestEngineSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dp := allocProgram(t)
	const ceiling = 24
	for _, tc := range []struct {
		name string
		cfg  Config
		ff   bool
	}{
		{"inorder", DefaultInOrder(), false},
		{"ooo", DefaultOOO(), false},
		{"inorder-ff", DefaultInOrder(), true},
		{"ooo-ff", DefaultOOO(), true},
	} {
		cfg := tc.cfg
		cfg.FastForward = tc.ff
		cfg.UseTinyMem()
		t.Run(tc.name, func(t *testing.T) {
			m := NewPredecoded(cfg, dp)
			run := func() {
				m.Reset(cfg, dp)
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
			}
			run() // warm: fault in pages, stat slots, ring buffers
			if allocs := testing.AllocsPerRun(5, run); allocs > ceiling {
				t.Fatalf("steady-state run: %v allocs/run, ceiling %d", allocs, ceiling)
			}
		})
	}
}

// TestInterpretAllocs pins the functional interpreter, which builds a fresh
// machine per call, to a hard ceiling: the machine (its memory and one
// thread) plus the result, nothing proportional to instructions executed.
// Measured today: 8.
func TestInterpretAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	dp := allocProgram(t)
	cfg := DefaultInOrder()
	cfg.UseTinyMem()
	run := func() {
		if _, err := InterpretPredecoded(cfg, dp, 1<<40); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(5, run); allocs > 8 {
		t.Fatalf("interpret: %v allocs/run, ceiling 8", allocs)
	}
}
