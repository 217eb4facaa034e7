package check

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

func adaptMcf(t *testing.T) (*ir.Program, *ir.Program) {
	t.Helper()
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := spec.Build(spec.TestScale)
	cfgs := Configs(true)
	prof, err := profile.Collect(orig, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	adapted, _, err := ssp.Adapt(orig, prof, ssp.DefaultOptions(), "mcf")
	if err != nil {
		t.Fatal(err)
	}
	return orig, adapted
}

// run links p and runs it on a new machine under cfg, under the run rule.
func run(t *testing.T, cfg sim.Config, p *ir.Program) *sim.Result {
	t.Helper()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.New(cfg, img).Run()
	if err == nil {
		err = res.Err()
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// profiledRun makes the original's first lattice phase as Seed does, and
// returns the profiled in-order run with the profile Seed derives from it.
func profiledRun(t *testing.T, cfgs []sim.Config, p *ir.Program) (*sim.Result, *profile.Profile) {
	t.Helper()
	r := newRunner(cfgs, maxInterpInstrs, nil)
	err := r.add(p, nil)
	if err == nil {
		err = r.walk(lattice[0], profiled)
	}
	if err != nil {
		t.Fatal(err)
	}
	res := r.runs[cell{profiled, 0, 0}]
	return res, profile.FromResult(p, r.dps[0].Img, cfgs[0].Mem, res)
}

// TestProfileFromLatticeRun: Seed's premise. The profile derived from the
// lattice's profiled in-order run is the profile a separate profiling run
// collects, for the original and, from the same run, for its lifted image.
func TestProfileFromLatticeRun(t *testing.T) {
	mcf, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := mcf.Build(mcf.TestScale)
	progs := map[string]*ir.Program{"mcf": orig}
	for _, seed := range []int64{0, 1, 9, 23} {
		progs[fmt.Sprintf("seed %d", seed)] = workloads.RandomProgram(seed)
	}
	cfgs := Configs(true)
	for name, p := range progs {
		res, prof := profiledRun(t, cfgs, p)
		want, err := profile.Collect(p, cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prof, want) {
			t.Errorf("%s: the lattice run's profile differs from profile.Collect", name)
		}
		lifted, err := relift(p)
		if err != nil {
			t.Fatal(err)
		}
		img, err := ir.Link(lifted)
		if err != nil {
			t.Fatal(err)
		}
		want, err = profile.Collect(lifted, cfgs[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := profile.FromResult(lifted, img, cfgs[0].Mem, res); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the lifted image's profile from the original's run differs from profile.Collect", name)
		}
	}
}

// TestSeedsClean: a sample of seeded random programs passes every layer
// (make sspcheck sweeps 500 seeds). Besides seeds 0-7 it holds the
// fuzz-corpus seeds that exercise multi-region portfolios (8, 16) and every
// slice shape the budget analysis decomposes (9, 23: latch-guarded loops,
// predicted countdowns, unrolled chains), and a negative seed.
func TestSeedsClean(t *testing.T) {
	seeds := []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 23, -3}
	if testing.Short() {
		seeds = seeds[:2]
	}
	cfgs := Configs(true)
	for _, seed := range seeds {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			if err := Seed(seed, cfgs); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestLiftEquivalenceCatchesAnotherImage: the lift layer really compares
// images. Claiming the original as what the default options adapt it to
// must fail, since adapting the lifted original adds slices.
func TestLiftEquivalenceCatchesAnotherImage(t *testing.T) {
	orig := workloads.RandomProgram(1)
	cfgs := Configs(true)
	res, prof := profiledRun(t, cfgs, orig)
	opts := []ssp.Options{ssp.DefaultOptions()}
	adapted, rep, err := ssp.Adapt(orig, prof, opts[0], "seed1")
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumSlices() == 0 {
		t.Fatal("seed 1 adapted to no slices")
	}
	if err := LiftEquivalence(cfgs[0], opts, orig, res, adapted); err != nil {
		t.Fatalf("clean layer: %v", err)
	}
	err = LiftEquivalence(cfgs[0], opts, orig, res, orig)
	if err == nil || !strings.Contains(err.Error(), "image digest") {
		t.Fatalf("another image passed the lift layer: %v", err)
	}
}

// referenceLayers runs the programs through the strategy layer and applies
// the differential and metamorphic checks to its reference runs, as Seed
// does.
func referenceLayers(cfgs []sim.Config, progs ...*ir.Program) error {
	r, err := strategyEquivalence(cfgs, nil, progs...)
	if err != nil {
		return err
	}
	return r.referenceChecks()
}

// TestWorkloadMetamorphic: the named benchmark adaptation satisfies the §2
// invariant under both machine models.
func TestWorkloadMetamorphic(t *testing.T) {
	orig, adapted := adaptMcf(t)
	if err := referenceLayers(Configs(true), orig, adapted); err != nil {
		t.Fatal(err)
	}
}

// TestBrokenAdaptationCaught: a store injected into a p-slice — the exact
// violation the paper's safety argument forbids — is caught both statically
// by ssp.AnalyzeSafety and dynamically by the metamorphic layer (the
// hardware suppresses the store, so it surfaces as SpecStores != 0 rather
// than as corrupted state).
func TestBrokenAdaptationCaught(t *testing.T) {
	orig, adapted := adaptMcf(t)
	f := adapted.FuncByName("main")
	b := f.BlockByLabel("ssp_slice_0")
	if b == nil {
		t.Fatal("adapted mcf has no ssp_slice_0")
	}
	st := &ir.Instr{Op: ir.OpSt, Ra: 21, Rb: 21}
	adapted.Assign(st)
	b.InsertAt(len(b.Instrs)-1, st)
	f.Renumber()

	if err := ssp.AnalyzeSafety(adapted, ssp.DefaultSafetyCeiling).Err(); err == nil {
		t.Error("AnalyzeSafety accepted a slice containing a store")
	}
	err := referenceLayers(Configs(true), orig, adapted)
	if err == nil {
		t.Fatal("metamorphic layer accepted a slice containing a store")
	}
	if !strings.Contains(err.Error(), "metamorphic") || !strings.Contains(err.Error(), "stores") {
		t.Fatalf("unexpected violation: %v", err)
	}
}

// TestSeedChecksReadReferences: Seed's differential, metamorphic and
// dynamic safety checks really read the strategy layer's reference runs.
// Each case perturbs one (model, program) cell the same way at every
// lattice point, like an engine bug that no execution strategy escapes, so
// the strategy layer's own comparisons still agree. Seed must then fail in
// the case's layer, naming the cell. Program 0 is the SSP-free original and
// program 1 its adaptation under the default options. A certificate shrunk
// below what a slice executes must trip the budget oracle.
func TestSeedChecksReadReferences(t *testing.T) {
	const seed = 1
	cfgs := Configs(true)
	target := cfgs[len(cfgs)-1].Model
	cases := []struct {
		name, layer string
		prog        int
		mut         func(*sim.Result)
	}{
		{"register", "check: differential", 0, func(r *sim.Result) { r.FinalRegs[1] ^= 1 }},
		{"memory checksum", "check: differential", 0, func(r *sim.Result) { r.MemChecksum ^= 1 }},
		{"main instrs", "check: differential", 0, func(r *sim.Result) {
			r.MainInstrs++
			if r.PCCount != nil {
				r.PCCount[0]++ // keep the profiled point conserved
			}
		}},
		{"spec stores", "check: metamorphic", 1, func(r *sim.Result) { r.SpecStores++ }},
		{"adapted checksum", "check: metamorphic", 1, func(r *sim.Result) { r.MemChecksum ^= 1 }},
		{"certificate", "dynamic oracle", 1, nil},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			var (
				perturb perturbFunc
				shrink  func([]map[string]int64)
				cell    = fmt.Sprintf("%v prog %d", target, c.prog)
			)
			if c.mut != nil {
				perturb = func(cfg sim.Config, prog int, _ point, r *sim.Result) {
					if cfg.Model == target && prog == c.prog {
						c.mut(r)
					}
				}
			} else {
				shrink = func(budgets []map[string]int64) {
					for _, b := range budgets {
						for k := range b {
							b[k] = 1 // no slice prologue fits in one instruction
						}
					}
				}
				cell = fmt.Sprintf("%v prog %d", cfgs[0].Model, c.prog)
			}
			err := runSeed(seed, cfgs, perturb, shrink)
			if err == nil {
				t.Fatal("Seed passed")
			}
			if !strings.Contains(err.Error(), c.layer) || !strings.Contains(err.Error(), cell) {
				t.Fatalf("error does not name %q in %q: %v", c.layer, cell, err)
			}
		})
	}
}

// TestConservationDetectsTampering: each invariant of layer 3 actually
// fires when its quantity is perturbed. The run is profiled, so the
// profile-count invariant is live too.
func TestConservationDetectsTampering(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := spec.Build(spec.TestScale)
	cfg := Configs(true)[0]
	cfg.Profile = true
	fresh := func() *sim.Result { return run(t, cfg, p) }
	if err := Conservation(fresh()); err != nil {
		t.Fatalf("clean result: %v", err)
	}
	tamper := []struct {
		name string
		mut  func(*sim.Result)
	}{
		{"breakdown", func(r *sim.Result) { r.Breakdown[0]++ }},
		{"histogram", func(r *sim.Result) { r.SpecActiveHist[0]-- }},
		{"cache totals", func(r *sim.Result) { r.Hier.Totals.Accesses++ }},
		{"per-load", func(r *sim.Result) {
			for _, s := range r.Hier.ByLoad() {
				s.Hits[0][0]++
				break
			}
		}},
		{"spawn accounting", func(r *sim.Result) { r.ChkTaken = r.Spawns + r.SpawnsIgnored + 1 }},
		{"profile counts", func(r *sim.Result) { r.PCCount[len(r.PCCount)-1]++ }},
	}
	for _, tc := range tamper {
		r := fresh()
		tc.mut(r)
		if err := Conservation(r); err == nil {
			t.Errorf("%s: tampered result passed conservation", tc.name)
		}
	}
}

// TestDifferentialInstrCounts: for an SSP-free program the three engines
// must retire exactly the same main-thread instruction stream.
func TestDifferentialInstrCounts(t *testing.T) {
	if err := Differential(Configs(true), workloads.RandomProgram(42), maxInterpInstrs); err != nil {
		t.Fatal(err)
	}
}

// TestStrategyEquivalenceBenchmarks: the strategy gate holds on all twelve
// workloads, baseline and SSP-adapted, under both machine models — the
// surface the experiment matrix runs. It also asserts that the knobs really
// do something there: the fast-forward core jumps on every baseline, and
// every image compiles to fused closure chains. A silently disabled
// strategy would pass equivalence trivially while the pipeline quietly lost
// its speedup.
func TestStrategyEquivalenceBenchmarks(t *testing.T) {
	cfgs := Configs(true)
	for _, spec := range workloads.All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			if testing.Short() && spec.Name != "mcf" {
				t.Skip("short mode: mcf only")
			}
			t.Parallel()
			orig, _ := spec.Build(spec.TestScale)
			prof, err := profile.Collect(orig, cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			adapted, _, err := ssp.Adapt(orig, prof, ssp.DefaultOptions(), spec.Name)
			if err != nil {
				t.Fatal(err)
			}
			if err := StrategyEquivalence(cfgs, orig, adapted); err != nil {
				t.Fatal(err)
			}
			for _, cfg := range cfgs {
				cfg.FastForward = true
				if res := run(t, cfg, orig); res.FastForwards == 0 {
					t.Errorf("%v: fast-forward core never jumped on %s", cfg.Model, spec.Name)
				}
			}
			for _, p := range []*ir.Program{orig, adapted} {
				img, err := ir.Link(p)
				if err != nil {
					t.Fatal(err)
				}
				tp := sim.ThreadedProgram(sim.Predecode(img))
				fused := 0
				for _, r := range tp.Runs {
					if r.N >= 2 {
						fused++
					}
				}
				if fused == 0 || tp.NSteps == 0 {
					t.Fatalf("%s: compiled without fusion (runs of 2 or more=%d steps=%d)", spec.Name, fused, tp.NSteps)
				}
			}
		})
	}
}

// moveHit moves one full hit of the lowest-numbered load that has one to the
// next memory level: the load's access count, the totals and conservation
// all still hold, so only the per-load comparison can notice.
func moveHit(r *sim.Result) {
	loads := r.Hier.ByLoad()
	ids := make([]int, 0, len(loads))
	for id := range loads {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		s := loads[id]
		for lvl := range s.Hits {
			if s.Hits[lvl][0] > 0 {
				s.Hits[lvl][0]--
				s.Hits[(lvl+1)%len(s.Hits)][0]++
				return
			}
		}
	}
	panic("no load with a full hit")
}

// shift moves one count from the first non-zero entry of s to the next
// entry, keeping the sum that conservation checks.
func shift(s []int64) {
	for i, v := range s {
		if v > 0 {
			s[i]--
			s[(i+1)%len(s)]++
			return
		}
	}
}

// TestStrategyEquivalenceCatchesEveryPoint: the gate really compares every
// point. Perturbing one point's Result in one cell — an extra cycle, one
// cycle moved between breakdown categories or utilization buckets, one
// per-load hit, one mispredict, one dropped prefetch, one register bit, each
// kept consistent enough to pass conservation on its own — must fail the
// gate, and
// the error must name that cell and point. A perturbed reference fails the
// first comparison made against it, whose error names the reference as its
// other side. At the profiled point, one extra profile count must trip the
// conservation layer.
func TestStrategyEquivalenceCatchesEveryPoint(t *testing.T) {
	orig := workloads.RandomProgram(1)
	cfgs := Configs(true)
	prof, err := profile.Collect(orig, cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	adapted, _, err := ssp.Adapt(orig, prof, ssp.DefaultOptions(), "seed1")
	if err != nil {
		t.Fatal(err)
	}
	if err := StrategyEquivalence(cfgs, adapted); err != nil {
		t.Fatalf("clean gate: %v", err)
	}
	perturbations := []struct {
		name     string
		mut      func(*sim.Result)
		profiled bool // applies only at points that profile
	}{
		{"cycle", func(r *sim.Result) {
			r.Cycles++
			r.Breakdown[0]++
			r.SpecActiveHist[0]++
		}, false},
		{"breakdown", func(r *sim.Result) { shift(r.Breakdown[:]) }, false},
		{"utilization", func(r *sim.Result) { shift(r.SpecActiveHist) }, false},
		{"per-load hit", moveHit, false},
		{"mispredict", func(r *sim.Result) { r.Mispredicts++ }, false},
		{"prefetch", func(r *sim.Result) { r.Hier.DroppedPrefetches++ }, false},
		{"register", func(r *sim.Result) { r.FinalRegs[1] ^= 1 }, false},
		{"profile count", func(r *sim.Result) { r.PCCount[0]++ }, true},
	}
	target := cfgs[len(cfgs)-1].Model
	prefix := fmt.Sprintf("%v prog 0 ", target)
	for _, pt := range lattice {
		for _, pert := range perturbations {
			if pert.profiled && !pt.profile {
				continue
			}
			pt, pert := pt, pert
			t.Run(pert.name+"/"+pt.String(), func(t *testing.T) {
				_, err := strategyEquivalence(cfgs, func(cfg sim.Config, _ int, at point, r *sim.Result) {
					if cfg.Model == target && at == pt {
						pert.mut(r)
					}
				}, adapted)
				if err == nil {
					t.Fatal("perturbed point passed the gate")
				}
				msg, cell := err.Error(), prefix+pt.String()
				named := strings.Contains(msg, cell+": ") || strings.Contains(msg, cell+" vs ")
				if pt == lattice[0] {
					named = named || strings.Contains(msg, prefix) && strings.Contains(msg, " vs "+pt.String()+": ")
				}
				if !named {
					t.Fatalf("error does not name %q: %v", cell, err)
				}
			})
		}
	}
}

// TestPCRangeEveryLatticePoint: a program whose main thread's control
// leaves the image fails with a pc-range *sim.RunError at every
// strategy-lattice point of both models, on both interpreter paths, and
// under Differential, which reports the reference interpreter's failure.
func TestPCRangeEveryLatticePoint(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "sim", "testdata", "pcrange_*.ssp"))
	if err != nil || len(files) != 2 {
		t.Fatalf("want the two pc-range probes, found %v (%v)", files, err)
	}
	cfgs := Configs(true)
	isPCRange := func(err error) bool {
		var re *sim.RunError
		return errors.As(err, &re) && re.Reason == "pc-range"
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		img, err := ir.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		dp := sim.Predecode(img)
		for _, interp := range []func(sim.Config, *decode.Program, int64) (*sim.InterpResult, error){sim.InterpretPredecoded, sim.InterpretStepwise} {
			if _, err := interp(cfgs[0], dp, maxInterpInstrs); !isPCRange(err) {
				t.Errorf("%s: interpreter: %v, want pc-range", file, err)
			}
		}
		if err := Differential(cfgs, p, maxInterpInstrs); !isPCRange(err) {
			t.Errorf("%s: Differential: %v, want pc-range", file, err)
		}
		// The runner's cells, without add's interpreter check.
		r := newRunner(cfgs, maxInterpInstrs, nil)
		r.progs, r.dps, r.budgets = []*ir.Program{p}, []*decode.Program{dp}, [][]map[string]int64{nil}
		for _, pt := range lattice {
			for ci := range cfgs {
				if _, err := r.exec(cell{pt, ci, 0}); !isPCRange(err) {
					t.Errorf("%s: %v %v: %v, want pc-range", file, cfgs[ci].Model, pt, err)
				}
			}
		}
	}
}
