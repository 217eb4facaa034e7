package exp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssp/internal/check"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/workloads"
)

// panicHook is an exec hook that panics after a set number of instructions —
// the injected mid-run failure of the pool-poisoning regression test.
type panicHook struct{ left int }

func (h *panicHook) Exec(m *sim.Machine, t *sim.Thread, pc int) {
	if h.left--; h.left <= 0 {
		panic("injected mid-run failure")
	}
}

// executeUncached resolves r through the program and binary stages and runs
// its simulation through execute, outside the sim cell, with setup
// instrumenting the machine first: the machine lifecycle (pool discipline,
// panic containment, cancellation) without a cache in the way.
func executeUncached(ctx context.Context, s *Suite, r request, setup func(*sim.Machine)) (*sim.Result, error) {
	var l lease
	defer s.release(&l)
	b, k, cfg, err := s.prepare(ctx, r, &l)
	if err != nil {
		return nil, err
	}
	res, _, err := s.execute(ctx, r.label(), k, cfg, b.dp, setup)
	return res, err
}

// profiled builds and profiles mcf in a new suite and checks the profiling
// run's pool traffic: one machine out, and back after its clean completion.
func profiled(t *testing.T) *Suite {
	t.Helper()
	s := NewSuite(ScaleTest)
	if _, _, _, err := s.Workload(context.Background(), "mcf"); err != nil {
		t.Fatal(err)
	}
	if st := s.PoolStats(); st.Gets != 1 || st.Puts != 1 {
		t.Fatalf("profiling run: pool %+v, want 1 get and 1 put", st)
	}
	return s
}

// TestPanickedRunDiscardsMachine: a run that panics mid-simulation must (a)
// surface as an error, not a panic, and (b) never return its machine to the
// pool — the next cell must run on a fresh or cleanly-recycled machine and
// produce exactly the reference result.
func TestPanickedRunDiscardsMachine(t *testing.T) {
	// The in-order baseline is the profiling run's cell, so the cell that
	// panics and is then computed cleanly is the OOO baseline.
	s := profiled(t)
	r, err := variantRequest("mcf", sim.OOO, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	_, err = executeUncached(context.Background(), s, r, func(m *sim.Machine) {
		m.AttachExec(&panicHook{left: 100})
	})
	if err == nil {
		t.Fatal("panicked run reported success")
	}
	if !strings.Contains(err.Error(), "panic during simulation") {
		t.Fatalf("panic not surfaced in the error: %v", err)
	}
	if st := s.PoolStats(); st.Gets != 2 || st.Puts != 1 {
		t.Fatalf("panicked run returned a machine to the pool (pool %+v, want 2 gets and 1 put)", st)
	}

	// The next run of the same cell must be clean and byte-identical to a
	// fresh suite's result.
	got, err := s.Run("mcf", sim.OOO, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSuite(ScaleTest).Run("mcf", sim.OOO, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run after a panicked cell diverged from a fresh suite")
	}
}

// killSource is a program whose main thread ends in thread_kill_self
// instead of halt.
func killSource() string {
	p := ir.NewProgram("main")
	e := ir.NewFunc(p, "main").Block("entry")
	e.MovI(20, 5)
	e.Kill()
	return ir.Format(p)
}

// TestMainKillFailsRun: a run whose main thread kills itself never finished
// the program. The first such run is the in-order profiling run, so on both
// models the job is an error naming that run. No result is cached (a
// repeated request gets the same error, as for any deterministic failure),
// and the machine is dropped instead of pooled.
func TestMainKillFailsRun(t *testing.T) {
	s := NewSuite(ScaleTest)
	src := killSource()
	const want = "source/in-order/base: main thread executed thread_kill_self"
	for _, model := range []sim.Model{sim.InOrder, sim.OOO} {
		for try := 0; try < 2; try++ {
			res, _, _, err := s.Served("", src, nil, model, nil).Do(context.Background(), nil)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%v try %d: err = %v, want %q", model, try, err, want)
			}
			if res != nil {
				t.Fatalf("%v try %d: a killed run returned a result", model, try)
			}
		}
	}
	if st := s.PoolStats(); st.Gets != 1 || st.Puts != 0 {
		t.Fatalf("the killed run returned its machine to the pool (pool %+v, want 1 get and 0 puts)", st)
	}
}

// cancelHook cancels a context after a set number of executed instructions,
// making "cancelled mid-run" deterministic instead of a sleep race. The
// direct Interrupt makes the stop land on the very next cycle; cancel()
// first means the machine reports context.Canceled, not ErrInterrupted.
type cancelHook struct {
	cancel context.CancelFunc
	left   int
}

func (h *cancelHook) Exec(m *sim.Machine, t *sim.Thread, pc int) {
	if h.left--; h.left == 0 {
		h.cancel()
		m.Interrupt()
	}
}

// TestCancelledCellRetries: a simulation cancelled mid-run returns ctx.Err()
// promptly, does not cache the cancellation, does not pool the abandoned
// machine, and a later call with a live context recomputes the cell
// correctly.
func TestCancelledCellRetries(t *testing.T) {
	s := profiled(t)

	// Deterministic mid-run cancellation: an exec hook pulls the trigger
	// after 500 instructions, well inside the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := variantRequest("mcf", sim.InOrder, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = executeUncached(ctx, s, r, func(m *sim.Machine) {
		m.AttachExec(&cancelHook{cancel: cancel, left: 500})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("cancellation took %v", wall)
	}
	if st := s.PoolStats(); st.Gets != 2 || st.Puts != 1 {
		t.Fatalf("cancelled run returned its machine to the pool (pool %+v, want 2 gets and 1 put)", st)
	}

	// A cancelled context surfaced through the public cache path must not
	// poison the cell: the next Run with a live context recomputes it and
	// matches a fresh suite byte-for-byte.
	dead, cancelDead := context.WithCancel(context.Background())
	cancelDead()
	if _, err := s.RunContext(dead, "mcf", sim.OOO, VarBase); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled RunContext: got %v", err)
	}
	got, err := s.Run("mcf", sim.OOO, VarBase)
	if err != nil {
		t.Fatalf("run after cancellation: %v", err)
	}
	want, err := NewSuite(ScaleTest).Run("mcf", sim.OOO, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recomputed cell diverged from a fresh suite")
	}
}

// TestRunAllContextCancel: a cancelled presimulation stops promptly and
// reports the context error instead of grinding through the matrix.
func TestRunAllContextCancel(t *testing.T) {
	s := NewSuite(ScaleTest)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.RunAllContext(ctx, MatrixKeys(), 2)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestProfileRunIsBaselineCell: the program stage's profiling run is the
// in-order baseline cell. For every benchmark, building the workload and
// then asking for its in-order baseline costs one simulation; the cached
// baseline carries no profile and matches an uncached rerun; the profile
// matches profile.Collect's; and the base binary reuses the program stage's
// predecoded image.
func TestProfileRunIsBaselineCell(t *testing.T) {
	ctx := context.Background()
	for _, bench := range Benchmarks() {
		s := NewSuite(ScaleTest)
		orig, _, prof, err := s.Workload(ctx, bench)
		if err != nil {
			t.Fatal(err)
		}
		base, err := s.Run(bench, sim.InOrder, VarBase)
		if err != nil {
			t.Fatal(err)
		}
		if gets := s.PoolStats().Gets; gets != 1 {
			t.Errorf("%s: workload and in-order baseline cost %d simulations, want 1", bench, gets)
		}
		if base.PCCount != nil || base.CallEdges != nil {
			t.Errorf("%s: cached baseline carries the profile's counts", bench)
		}
		if base.FastForwards == 0 {
			t.Errorf("%s: baseline did not fast-forward (MachineConfig should enable it)", bench)
		}
		r, err := variantRequest(bench, sim.InOrder, VarBase)
		if err != nil {
			t.Fatal(err)
		}
		rerun, err := executeUncached(ctx, s, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := check.SameTiming(base, rerun); err != nil {
			t.Errorf("%s: cached baseline vs uncached rerun: %v", bench, err)
		}
		want, err := profile.Collect(orig, s.MachineConfig(sim.InOrder))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(prof, want) {
			t.Errorf("%s: suite profile differs from profile.Collect", bench)
		}
		p, err := s.program(ctx, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.binary(ctx, r, nil)
		if err != nil {
			t.Fatal(err)
		}
		if b.dp != p.dp || b.image != p.image {
			t.Errorf("%s: base binary predecoded the original again", bench)
		}
	}
}

// TestProfileAfterUnprofiledCell: when the baseline's image was already
// simulated without a profile, the program stage still gets its profile, by
// one profiled run outside the cache, and the cell keeps its result.
func TestProfileAfterUnprofiledCell(t *testing.T) {
	ctx := context.Background()
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	orig, want := spec.Build(spec.TestScale)
	s := NewSuite(ScaleTest)
	first, err := s.Simulate(ctx, "copy", sim.InOrder, orig, want)
	if err != nil {
		t.Fatal(err)
	}
	_, _, prof, err := s.Workload(ctx, "mcf")
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.InstrFreq) == 0 || prof.Cycles != first.Cycles {
		t.Fatalf("profile not derived from a full run: %d instrs, %d cycles (baseline %d)", len(prof.InstrFreq), prof.Cycles, first.Cycles)
	}
	base, err := s.Run("mcf", sim.InOrder, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	if base != first {
		t.Error("baseline cell lost the earlier simulation's result")
	}
	if st := s.PoolStats(); st.Gets != 2 || st.Puts != 2 {
		t.Errorf("pool %+v, want 2 gets and 2 puts", st)
	}
}

// TestProfileErrorPrefix: a failed profiling run, the watchdog's included,
// reports "<bench>: profile: ".
func TestProfileErrorPrefix(t *testing.T) {
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	p := &program{check: true}
	p.orig, p.want = spec.Build(spec.TestScale)
	s := NewSuite(ScaleTest)
	cfg := s.MachineConfig(sim.InOrder)
	cfg.MaxCycles = 1000
	err = s.profile(context.Background(), "mcf", p, cfg, nil)
	if err == nil || !strings.HasPrefix(err.Error(), "mcf: profile: ") || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("watchdog during profiling: err = %v", err)
	}
	if p.prof != nil {
		t.Error("a failed profiling run left a profile")
	}
}
