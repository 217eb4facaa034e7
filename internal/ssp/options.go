// Package ssp implements the paper's contribution: the post-pass compilation
// tool that adapts a binary for software-based speculative precomputation.
// Given the program IR+CFG and profiling feedback (Figure 1), it identifies
// delinquent loads (§2.2), extracts precomputation slices via region-based,
// context-sensitive, speculative slicing (§3.1), schedules them for basic or
// chaining SP (§3.2), places chk.c triggers (§3.3), and generates the
// enhanced binary with stub and slice blocks appended after the trigger's
// function (§3.4, Figure 7).
package ssp

import "encoding/json"

// Options tunes the post-pass tool. Zero value is not useful; start from
// DefaultOptions.
type Options struct {
	// DelinquentCutoff is the fraction of total miss cycles the selected
	// delinquent loads must cover (§2.2 uses 90%).
	DelinquentCutoff float64
	// MaxDelinquent caps how many static loads are targeted.
	MaxDelinquent int

	// MinRegionMissFrac is the per-region ranking floor: when delinquent
	// loads are ranked within hot regions (the slice-portfolio pipeline), a
	// region contributing less than this fraction of all miss cycles is not
	// considered hot and contributes no targets. It keeps cold regions from
	// earning a p-slice whose spawn overhead outweighs its prefetches.
	MinRegionMissFrac float64

	// ReducedMissCutoff is the region-selection threshold: the first
	// region whose reduced miss cycles exceed this fraction of the
	// region's miss cycles is chosen (§3.4.1: "the product of the cutoff
	// percentage and the miss cycles from cache profiling").
	ReducedMissCutoff float64
	// MaxRegionDepth stops the outward region traversal after this many
	// expansion steps, "to avoid a slice becoming too big that often leads
	// to wrong address calculations" (§3.4.1).
	MaxRegionDepth int
	// MaxContextDepth bounds the interprocedural context chain a slice may
	// inline when its region sits below a call (context-sensitive slicing,
	// §3.1.2): the number of dominant-caller hops walked from the region's
	// function toward the trigger's function.
	MaxContextDepth int

	// MaxSliceSize prunes slices that grow beyond this many instructions
	// (slice-pruning, §3.1.2).
	MaxSliceSize int
	// MaxLiveIns rejects trigger placements needing more live-in copies
	// than the live-in buffer comfortably holds.
	MaxLiveIns int

	// SpeculativeSlicing enables control-flow speculative slicing: defs on
	// never-executed blocks and unrealized call edges are pruned using
	// block profiles and the dynamic call graph (§3.1.2).
	SpeculativeSlicing bool
	// BiasThreshold is the branch bias above which condition prediction
	// may discard the dependences leading to a spawn condition (§3.2.1.1).
	BiasThreshold float64
	// CondPrediction enables spawn-condition prediction: when the spawn
	// condition depends on a load, it is replaced by a trip-count-bounded
	// countdown so chaining threads spawn without waiting on memory
	// (§3.2.1.1: "the prediction breaks the dependences leading to the
	// spawn condition").
	CondPrediction bool
	// LoopRotation enables the dependence-reduction reordering that places
	// the loop-carried recurrence (the critical sub-slice) at the top of
	// the generated do-across loop body (§3.2.1.1-3.2.1.2).
	LoopRotation bool
	// Chaining allows chaining SP at all; disabled, every slice is
	// scheduled for basic SP (the ablation of §3.2).
	Chaining bool
	// TriggerHoisting moves triggers to immediate dominators when slack is
	// unchanged, merging triggers (§3.3).
	TriggerHoisting bool

	// ChainBound caps the countdown used by predicted spawn conditions so
	// a mispredicted chain cannot run away.
	ChainBound int64

	// ChainUnroll makes each chaining thread cover this many iterations:
	// the critical sub-slice is applied ChainUnroll times before the
	// spawn, and the prefetch body is replicated per step with renamed
	// temporaries. This automates the unrolling the paper's hand-adapted
	// binaries used to widen slack (§4.5) and amortizes spawn overhead;
	// 1 reproduces the paper's tool exactly.
	ChainUnroll int

	// SpawnOverhead estimates the live-in copy + spawn cost in cycles for
	// the slack equations (§3.2.1.2.2's "latency(copy live-ins and
	// spawn)").
	SpawnOverhead float64
	// SlackMax prunes region growth once the projected slack exceeds this
	// many cycles: "having too much slack may cause adverse cache
	// interference" (§3).
	SlackMax float64
}

// DefaultOptions mirrors the paper's settings where stated (90% cutoff) and
// uses conservative values elsewhere; §3.4.1 reports the tool "is not highly
// sensitive to the percentage as long as it is reasonably selected".
func DefaultOptions() Options {
	return Options{
		DelinquentCutoff:   0.90,
		MaxDelinquent:      10,
		MinRegionMissFrac:  0.02,
		ReducedMissCutoff:  0.30,
		MaxRegionDepth:     4,
		MaxContextDepth:    8,
		MaxSliceSize:       48,
		MaxLiveIns:         8,
		SpeculativeSlicing: true,
		BiasThreshold:      0.95,
		CondPrediction:     true,
		LoopRotation:       true,
		Chaining:           true,
		TriggerHoisting:    true,
		ChainBound:         128,
		ChainUnroll:        1,
		SpawnOverhead:      12,
		SlackMax:           100_000,
	}
}

// Key returns the canonical cache key of an option set: the JSON encoding
// of every exported field in declaration order. Memoization layers (the
// experiment suite's options-keyed cells, the tuner's candidate cache) key
// on it so two option sets share a cell exactly when every knob matches.
func (o Options) Key() string {
	data, err := json.Marshal(o)
	if err != nil {
		// Every field is a plain scalar; Marshal cannot fail.
		panic(err)
	}
	return string(data)
}

// Report summarizes an adaptation in the shape of Table 2, plus diagnostics.
// The JSON encoding is the machine-readable Table 2 consumed by the
// experiment drivers and `make table2`.
type Report struct {
	// Benchmark is a caller-provided label.
	Benchmark string `json:"benchmark"`
	// DelinquentLoads lists the targeted static load IDs.
	DelinquentLoads []int `json:"delinquent_loads"`
	// Slices describes every generated p-slice.
	Slices []SliceInfo `json:"slices"`
	// Skipped lists targeted loads the tool could not cover, with the
	// pipeline stage that dropped them. Together with Slices it accounts
	// for every targeted load: each ID in DelinquentLoads appears either
	// in some slice's Targets or here, never silently vanishing.
	Skipped []SkippedLoad `json:"skipped,omitempty"`
	// Safety is the speculation-safety certificate of the adapted binary:
	// per-slice instruction budgets and the proof obligations discharged
	// (safety.go). The tool verifies it as part of its self-check, so a
	// returned report never carries violations.
	Safety *SafetyReport `json:"safety,omitempty"`
}

// SkippedLoad records one delinquent load the tool targeted but dropped.
type SkippedLoad struct {
	// ID is the static load ID from DelinquentLoads.
	ID int `json:"id"`
	// Reason names the stage that rejected the load; stages that reject a
	// whole region group prefix the rejecting region's name.
	Reason string `json:"reason"`
}

// Covered reports whether load id made it into some emitted slice.
func (r *Report) Covered(id int) bool {
	for _, s := range r.Slices {
		for _, t := range s.Targets {
			if t == id {
				return true
			}
		}
	}
	return false
}

// SliceInfo is one row's worth of Table 2 data for a single p-slice.
type SliceInfo struct {
	// Targets are the delinquent load IDs this slice prefetches.
	Targets []int `json:"targets"`
	// Region names the selected region.
	Region string `json:"region"`
	// Trigger names the trigger site as "func.block": where this slice's
	// chk.c was embedded. Independent slices have distinct trigger sites.
	Trigger string `json:"trigger"`
	// Model names the selected precomputation model (chaining, basic-loop,
	// basic-oneshot).
	Model string `json:"model"`
	// Size is the number of precomputation instructions in the slice body
	// (excluding live-in plumbing and thread control).
	Size int `json:"size"`
	// LiveIns is the number of live-in values copied at the trigger.
	LiveIns int `json:"live_ins"`
	// Interprocedural marks slices assembled from more than one function
	// (§4.2: "interprocedural slices contribute to larger slack value").
	Interprocedural bool `json:"interprocedural"`
	// Chaining records the selected precomputation model.
	Chaining bool `json:"chaining"`
	// Predicted records whether the spawn condition was predicted.
	Predicted bool `json:"predicted"`
	// SlackCSP and SlackBSP are the per-iteration slack estimates of
	// §3.2.1.2.2 and §3.2.2.
	SlackCSP float64 `json:"slack_csp"`
	SlackBSP float64 `json:"slack_bsp"`
	// AvailableILP is the slice's available instruction-level parallelism
	// (§3.2.1.2.2); the tool reports it to justify the height-priority
	// scheduling heuristic.
	AvailableILP float64 `json:"available_ilp"`
	// TripCount is the region's estimated iteration count.
	TripCount float64 `json:"trip_count"`
	// SpawnBudget is the effective chain/countdown bound this slice was
	// emitted with: ChainBound divided across the concurrently-armed slices
	// of the portfolio so they cannot starve each other of spec contexts.
	SpawnBudget int64 `json:"spawn_budget"`
}

// NumSlices returns the slice count (Table 2, "Slices").
func (r *Report) NumSlices() int { return len(r.Slices) }

// NumInterproc returns the interprocedural slice count (Table 2).
func (r *Report) NumInterproc() int {
	n := 0
	for _, s := range r.Slices {
		if s.Interprocedural {
			n++
		}
	}
	return n
}

// AvgSize returns the average slice size (Table 2).
func (r *Report) AvgSize() float64 {
	if len(r.Slices) == 0 {
		return 0
	}
	t := 0
	for _, s := range r.Slices {
		t += s.Size
	}
	return float64(t) / float64(len(r.Slices))
}

// AvgLiveIns returns the average live-in count (Table 2).
func (r *Report) AvgLiveIns() float64 {
	if len(r.Slices) == 0 {
		return 0
	}
	t := 0
	for _, s := range r.Slices {
		t += s.LiveIns
	}
	return float64(t) / float64(len(r.Slices))
}
