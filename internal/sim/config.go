// Package sim is an execution-driven, cycle-level simulator of the two
// research Itanium SMT machine models of Table 1: a 12-stage in-order
// pipeline and a 16-stage out-of-order pipeline, both with four hardware
// thread contexts, shared fetch/issue bandwidth (2 bundles from one thread
// or 1 bundle each from two threads per cycle), a shared three-level cache
// hierarchy with a fill buffer, GSHARE+BTB branch prediction, and the SSP
// thread-spawning mechanism: chk.c raises a lightweight exception into a
// stub block when a free context exists, stub code copies live-ins into the
// Register Stack Engine backing-store buffer, and spawn binds a speculative
// thread to a free context (§2.1, §3.4.2).
package sim

import (
	"fmt"

	"ssp/internal/sim/mem"
)

// Model selects the pipeline organization.
type Model uint8

const (
	// InOrder is the 12-stage in-order model: issue stalls when an
	// instruction uses the destination register of an outstanding miss.
	InOrder Model = iota
	// OOO is the 16-stage out-of-order model: 255-entry per-thread reorder
	// buffer, 18-entry reservation station, in-order retirement.
	OOO
)

func (m Model) String() string {
	if m == InOrder {
		return "in-order"
	}
	return "ooo"
}

// ParseModel maps a model name to its Model: "in-order" or "io" for
// InOrder, "ooo" or "out-of-order" for OOO.
func ParseModel(name string) (Model, error) {
	switch name {
	case "in-order", "io":
		return InOrder, nil
	case "ooo", "out-of-order":
		return OOO, nil
	}
	return 0, fmt.Errorf("unknown model %q (want in-order or ooo)", name)
}

// Config holds all machine parameters. Defaults mirror Table 1.
type Config struct {
	Model Model
	Mem   mem.Config

	// Contexts is the number of hardware thread contexts (Table 1: 4).
	Contexts int
	// IssueWidth is the total issue bandwidth per cycle in instructions
	// (2 bundles x 3).
	IssueWidth int
	// ThreadsPerCycle bounds how many threads share a cycle's bandwidth
	// (2: one bundle each).
	ThreadsPerCycle int

	// Function units per cycle (Table 1: 4 integer, 2 FP, 3 branch,
	// 2 memory ports).
	IntUnits, FPUnits, BrUnits, MemPorts int

	// MulLat is the integer multiply latency; other ALU ops take 1 cycle.
	MulLat int64
	// FPLat is the FP arithmetic latency (fadd/fmul/fma).
	FPLat int64

	// MispredictPenalty is the front-end refill cost of a branch
	// misprediction (the pipeline depth: 12 in-order, 16 OOO).
	MispredictPenalty int64
	// SpawnFlushPenalty is the cost of taking the chk.c lightweight
	// exception on the main thread: "thread spawning is assessed with
	// similar penalty to exception handling that incurs pipeline flushes"
	// (§4.4.1).
	SpawnFlushPenalty int64
	// SpawnStartup is the front-end delay before a newly spawned thread
	// issues its first instruction.
	SpawnStartup int64
	// SpawnCooldown is the minimum interval between taken chk.c
	// exceptions on a thread: the hardware rate-limits spawning so that
	// exception-style flushes cannot swamp the pipeline — the paper's
	// "judicious" application of SSP, where unhelpful chk.c instructions
	// "will return no available context" (§4.4.1).
	SpawnCooldown int64
	// LIBCopyLat is the latency of moving a value through the live-in
	// buffer (the on-chip RSE backing store, §2.1).
	LIBCopyLat int64

	// ROBSize and RSSize configure the OOO window (255 / 18 per Table 1).
	ROBSize int
	RSSize  int
	// RetireWidth bounds in-order retirement per thread per cycle.
	RetireWidth int

	// MaxSpecInstrs kills a runaway speculative thread once its activation
	// has executed this many dynamic instructions — an activation never
	// executes more. It is the hardware ceiling the speculation-safety
	// verifier certifies slice budgets against (ssp.DefaultSafetyCeiling
	// mirrors the default).
	MaxSpecInstrs int64
	// MaxCycles is a global watchdog; the run aborts with Result.TimedOut
	// when exceeded.
	MaxCycles int64

	// Profile enables per-PC execution counts and indirect-call edge
	// capture (the profiling pass of Figure 1).
	Profile bool

	// FastForward enables the stall-aware fast-forward timing core
	// (fastforward.go): when the machine is fully stalled — no thread can
	// issue, dispatch, or retire anything until a known future cycle — the
	// engine computes the next-event cycle from the pending completion
	// times and jumps there in one step, bulk-crediting the skipped cycles
	// into the Breakdown and SpecActiveHist accounting. The jump is
	// semantically inert: check.StrategyEquivalence asserts bit-for-bit
	// identical results with it on and off. Machines that spend most
	// cycles stalled on memory (the paper's Figure 10 machines) simulate
	// several times faster.
	FastForward bool
}

// Validate reports a configuration the engines cannot run: one that would
// never issue (no issue bandwidth or no unit of some class, no thread
// selected per cycle, an OOO window that holds or retires nothing) and so
// spin silently to the watchdog, or one wider than the engines' bitmaps —
// the speculative-context mask and the fill-buffer valid mask are one 64-bit
// word each, and the per-cycle selection array holds maxSelect threads.
// Reset and RunContext return its error.
func (c *Config) Validate() error {
	type field struct {
		name string
		v    int
	}
	units := []field{
		{"IssueWidth", c.IssueWidth},
		{"IntUnits", c.IntUnits}, {"FPUnits", c.FPUnits},
		{"BrUnits", c.BrUnits}, {"MemPorts", c.MemPorts},
	}
	if c.Model == OOO {
		units = append(units, field{"ROBSize", c.ROBSize}, field{"RSSize", c.RSSize}, field{"RetireWidth", c.RetireWidth})
	}
	for _, f := range units {
		if f.v < 1 {
			return fmt.Errorf("sim: config %s = %d, want at least 1", f.name, f.v)
		}
	}
	if c.ThreadsPerCycle < 1 || c.ThreadsPerCycle > maxSelect {
		return fmt.Errorf("sim: config ThreadsPerCycle = %d, want 1..%d", c.ThreadsPerCycle, maxSelect)
	}
	if c.Contexts < 1 || c.Contexts > 64 {
		return fmt.Errorf("sim: config Contexts = %d, want 1..64", c.Contexts)
	}
	if n := c.Mem.FillBufferEntries; n < 1 || n > 64 {
		return fmt.Errorf("sim: config Mem.FillBufferEntries = %d, want 1..64", n)
	}
	return nil
}

// UseTinyMem shrinks the cache hierarchy to the scaled-down test machine
// (1KB L1 / 4KB L2 / 16KB L3). It is the single definition of the "test"
// memory system: exp.ScaleTest, which every CLI names -scale test.
func (c *Config) UseTinyMem() {
	c.Mem.L1Size = 1 << 10
	c.Mem.L2Size = 4 << 10
	c.Mem.L3Size = 16 << 10
}

// DefaultInOrder returns the Table 1 in-order model.
func DefaultInOrder() Config {
	return Config{
		Model:           InOrder,
		Mem:             mem.Default(),
		Contexts:        4,
		IssueWidth:      6,
		ThreadsPerCycle: 2,
		IntUnits:        4, FPUnits: 2, BrUnits: 3, MemPorts: 2,
		MulLat:            3,
		FPLat:             4,
		MispredictPenalty: 12,
		SpawnFlushPenalty: 12,
		SpawnStartup:      6,
		SpawnCooldown:     200,
		LIBCopyLat:        3,
		ROBSize:           255,
		RSSize:            18,
		RetireWidth:       6,
		MaxSpecInstrs:     1 << 20,
		MaxCycles:         2_000_000_000,
	}
}

// DefaultOOO returns the Table 1 out-of-order model: four extra front-end
// stages over the in-order model.
func DefaultOOO() Config {
	c := DefaultInOrder()
	c.Model = OOO
	c.MispredictPenalty = 16
	c.SpawnFlushPenalty = 16
	// A taken chk.c on the OOO model forfeits a whole window of in-flight
	// work (the retirement-stage drain), so the hardware rate-limits
	// spawning far more aggressively than the in-order model needs to.
	c.SpawnCooldown = 800
	return c
}
