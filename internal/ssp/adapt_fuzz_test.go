package ssp

import (
	"testing"

	"ssp/internal/profile"
	"ssp/internal/workloads"
)

// FuzzAdaptRandomProgram drives the whole adaptation tool from a fuzzed seed:
// the input bytes pick a workloads.RandomProgram and an option mix, and the
// property is the tool's total-correctness contract — Adapt either refuses
// with a clean error or produces a binary that passes the speculation-safety
// verifier (Adapt runs Validate and AnalyzeSafety internally, so a
// non-error return that would fail them is already a bug; this target asserts
// it explicitly anyway, and that the tool never panics). The dynamic half of
// the contract (identical architectural state) is covered per seed by
// check.Seed, which is too slow for a fuzz loop.
func FuzzAdaptRandomProgram(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1000} {
		f.Add(seed, uint8(0))
		f.Add(seed, uint8(0xff))
	}
	f.Add(int64(-3), uint8(0b10101))
	// Seeds whose generated program grows a second hot phase (1 in 4 draws):
	// the fuzz corpus must exercise the multi-region portfolio pipeline, not
	// just single-loop programs. TestRandomProgramTwoPhaseSeedsAdapt pins
	// that these produce >= 2 independent slices today.
	for _, seed := range []int64{8, 16} {
		f.Add(seed, uint8(0))
		f.Add(seed, uint8(0xff))
	}
	// Safety-verifier seeds: option mixes that exercise every slice shape
	// the budget analysis decomposes — latch-guarded basic loops (chaining
	// and prediction off), predicted countdown chains, and unrolled chains.
	f.Add(int64(4), uint8(0b00100))
	f.Add(int64(9), uint8(0b100101))
	f.Add(int64(23), uint8(0b11100111))
	f.Fuzz(func(t *testing.T, seed int64, optBits uint8) {
		p := workloads.RandomProgram(seed)
		prof, err := profile.Collect(p, tinyConfig())
		if err != nil {
			t.Fatalf("seed %d: profile of a generated program failed: %v", seed, err)
		}
		opt := DefaultOptions()
		opt.Chaining = optBits&1 != 0
		opt.LoopRotation = optBits&2 != 0
		opt.CondPrediction = optBits&4 != 0
		opt.SpeculativeSlicing = optBits&8 != 0
		opt.TriggerHoisting = optBits&16 != 0
		if optBits&32 != 0 {
			opt.ChainUnroll = 2 + int(optBits>>6) // 2 or 3
		}
		adapted, _, err := Adapt(p, prof, opt, "fuzz")
		if err != nil {
			return // a clean refusal satisfies the contract
		}
		if err := adapted.Validate(); err != nil {
			t.Fatalf("seed %d optBits %#x: adapted binary fails Validate: %v", seed, optBits, err)
		}
		// The attachment and safety verifier must certify every tool
		// output: a budget at or under the ceiling and zero violations. Its
		// negative corpus is exercised too — every mutant of the adapted
		// binary must be rejected with the injected class (skipped when the
		// adaptation emitted no slices; there is nothing to corrupt).
		srep := AnalyzeSafety(adapted, DefaultSafetyCeiling)
		if err := srep.Err(); err != nil {
			t.Fatalf("seed %d optBits %#x: adapted binary fails AnalyzeSafety: %v", seed, optBits, err)
		}
		if srep.MaxBudget() > DefaultSafetyCeiling {
			t.Fatalf("seed %d optBits %#x: certified budget %d exceeds ceiling", seed, optBits, srep.MaxBudget())
		}
		if len(srep.Slices) > 0 {
			if err := CheckUnsafe(adapted, DefaultSafetyCeiling); err != nil {
				t.Fatalf("seed %d optBits %#x: negative corpus: %v", seed, optBits, err)
			}
		}
	})
}

// TestRandomProgramTwoPhaseSeedsAdapt pins the fuzz corpus's multi-region
// seeds: each generates a two-phase random program (the 1-in-4 second-phase
// draw fired) whose adaptation yields independent slices in separate
// regions — the corpus genuinely reaches the portfolio pipeline.
func TestRandomProgramTwoPhaseSeedsAdapt(t *testing.T) {
	for _, seed := range []int64{1, 8, 16} {
		p := workloads.RandomProgram(seed)
		if p.FuncByName("main").BlockByLabel("loop2") == nil {
			t.Fatalf("seed %d no longer generates a second hot phase", seed)
		}
		prof, err := profile.Collect(p, tinyConfig())
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := Adapt(p, prof, DefaultOptions(), "fuzzseed")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		regions := map[string]bool{}
		for _, s := range rep.Slices {
			regions[s.Region] = true
		}
		if rep.NumSlices() < 2 || len(regions) < 2 {
			t.Fatalf("seed %d: %d slices over regions %v, want >= 2 independent slices",
				seed, rep.NumSlices(), regions)
		}
	}
}
