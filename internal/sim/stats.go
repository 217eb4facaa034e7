package sim

import (
	"fmt"

	"ssp/internal/ir"
	"ssp/internal/sim/mem"
)

// Category classifies each main-thread cycle for the Figure 10 breakdown.
type Category uint8

const (
	// CatL3 counts cycles stalled (no issue) on loads that missed the L3
	// cache and went to memory.
	CatL3 Category = iota
	// CatL2 counts no-issue cycles on loads that missed L2 and hit L3.
	CatL2
	// CatL1 counts no-issue cycles on loads that missed L1 and hit L2.
	CatL1
	// CatCacheExec counts cycles where issue happened while misses were
	// outstanding.
	CatCacheExec
	// CatExec counts pure execution cycles.
	CatExec
	// CatOther counts remaining bubbles (branch mispredictions, spawn
	// flushes, structural stalls).
	CatOther
	// NumCategories is the category count.
	NumCategories
)

func (c Category) String() string {
	switch c {
	case CatL3:
		return "L3"
	case CatL2:
		return "L2"
	case CatL1:
		return "L1"
	case CatCacheExec:
		return "Cache+Exec"
	case CatExec:
		return "Exec"
	case CatOther:
		return "Other"
	}
	return "?"
}

// Result reports one simulation run.
type Result struct {
	Cycles     int64
	MainInstrs int64
	SpecInstrs int64

	// Breakdown partitions the main thread's cycles (Figure 10).
	Breakdown [NumCategories]int64

	Spawns        int64 // speculative threads started
	SpawnsIgnored int64 // spawn requests dropped for lack of a context
	ChkTaken      int64 // chk.c exceptions taken by the main thread
	Mispredicts   int64
	SpecStores    int64 // suppressed store attempts by speculative threads
	TimedOut      bool
	// MainKilled reports that the main thread executed thread_kill_self,
	// which only speculative threads may do (§2.1); the run ends but its
	// architectural state is unreliable. Err turns this, and TimedOut,
	// into a *RunError.
	MainKilled bool
	// PCRange reports that the main thread's control left the image: it
	// fell through past the last instruction, or a ret or callb jumped
	// past the code. The run ends there; Err reports it.
	PCRange bool

	// FinalRegs snapshots the main thread's register file at the end of the
	// run and MemChecksum digests memory contents (mem.Memory.Checksum);
	// together they are the architectural state compared by the
	// cross-engine and metamorphic layers of internal/check.
	FinalRegs   [ir.NumRegs]uint64
	MemChecksum uint64

	// Hier exposes the memory-system statistics of the run (per-load
	// level/partial counts for Figure 9, miss cycles for profiling).
	Hier *mem.Hierarchy

	// SpecActiveHist[k] counts cycles during which exactly k speculative
	// threads were active — the context-utilization profile of the run
	// (how much of the SMT machine SSP actually uses).
	SpecActiveHist []int64

	// FastForwards counts stall jumps taken by the fast-forward timing
	// core and FastForwardedCycles the cycles those jumps skipped (cycles
	// credited to the breakdown in bulk instead of being simulated one at
	// a time). Both are zero when Config.FastForward is off. They describe
	// the host-side execution strategy, not the simulated machine, so the
	// strategy gate in internal/check deliberately excludes them.
	FastForwards        int64
	FastForwardedCycles int64

	// PCCount is per-PC main-thread execution counts when profiling.
	PCCount []uint64
	// CallEdges maps an indirect call instruction ID to the entry PCs it
	// reached with counts (the dynamic call graph capture of §3.1.2).
	CallEdges map[int]map[int]uint64
}

// IPC returns main-thread instructions per cycle.
func (r *Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.MainInstrs) / float64(r.Cycles)
}

// RunError is a run that did not finish the program (Result.Err, and the
// functional interpreter's failures). Reason is "watchdog"
// (Config.MaxCycles expired), "main-kill" (the main thread executed
// thread_kill_self), "pc-range" (the main thread's control left the image)
// or, from the interpreter only, "instr-limit" (the run reached its
// instruction limit).
type RunError struct {
	Reason string
	msg    string
}

func (e *RunError) Error() string { return e.msg }

// Err is the run rule: a run that hit the watchdog, whose main thread
// killed itself or whose main thread's control left the image has failed,
// with a *RunError; for any other run it is nil.
func (r *Result) Err() error {
	switch {
	case r.TimedOut:
		return &RunError{"watchdog", fmt.Sprintf("watchdog expired after %d cycles", r.Cycles)}
	case r.MainKilled:
		return &RunError{"main-kill", "main thread executed thread_kill_self"}
	case r.PCRange:
		return &RunError{"pc-range", "main thread's control left the image"}
	}
	return nil
}
