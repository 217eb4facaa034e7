package exp

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"ssp/internal/sim"
)

// panicHook is an exec hook that panics after a set number of instructions —
// the injected mid-run failure of the pool-poisoning regression test.
type panicHook struct{ left int }

func (h *panicHook) Exec(m *sim.Machine, t *sim.Thread, pc int) {
	if h.left--; h.left <= 0 {
		panic("injected mid-run failure")
	}
}

// TestPanickedRunDiscardsMachine: a run that panics mid-simulation must (a)
// surface as an error, not a panic, and (b) never return its machine to the
// pool — the next cell must run on a fresh or cleanly-recycled machine and
// produce exactly the reference result.
func TestPanickedRunDiscardsMachine(t *testing.T) {
	s := NewSuite(ScaleTest)
	_, err := s.RunInstrumented("mcf", sim.InOrder, VarBase, func(m *sim.Machine) {
		m.AttachExec(&panicHook{left: 100})
	})
	if err == nil {
		t.Fatal("panicked run reported success")
	}
	if !strings.Contains(err.Error(), "panic during simulation") {
		t.Fatalf("panic not surfaced in the error: %v", err)
	}
	if puts := s.PoolStats().Puts; puts != 0 {
		t.Fatalf("panicked run returned a machine to the pool (Puts=%d)", puts)
	}

	// The next run of the same cell must be clean and byte-identical to a
	// fresh suite's result.
	got, err := s.Run("mcf", sim.InOrder, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewSuite(ScaleTest).Run("mcf", sim.InOrder, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("run after a panicked cell diverged from a fresh suite")
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
	s := NewSuite(ScaleTest)

	// Deterministic mid-run cancellation: an exec hook pulls the trigger
	// after 500 instructions, well inside the run.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r, err := variantRequest("mcf", sim.InOrder, VarBase)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _, err = s.compute(ctx, r, func(m *sim.Machine) {
		m.AttachExec(&cancelHook{cancel: cancel, left: 500})
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > 5*time.Second {
		t.Errorf("cancellation took %v", wall)
	}
	if puts := s.PoolStats().Puts; puts != 0 {
		t.Fatalf("cancelled run returned its machine to the pool (Puts=%d)", puts)
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
