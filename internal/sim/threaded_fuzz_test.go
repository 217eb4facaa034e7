package sim

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/workloads"
)

// FuzzThreadedEquivalence drives the closure-threaded execution core from a
// fuzzed seed: the input picks a workloads.RandomProgram and an instruction
// ceiling, and the property is architectural equivalence — interpreting the
// program with its fused runs (InterpretPredecoded) must agree bit-for-bit
// with the per-PC interpreter loop (InterpretStepwise) on the retired
// instruction count, the final register file, and the memory checksum,
// including on which side of the ceiling the run lands (both succeed or both
// report the identical error). The full-Result timing equivalence (both engines, stats,
// fast-forward) is covered per seed by check.Seed, which is too slow
// for a fuzz loop; the lattice, in turn, never varies the instruction
// ceiling fuzzed here.
func FuzzThreadedEquivalence(f *testing.F) {
	for _, seed := range []int64{0, 7, 42} {
		f.Add(seed, uint8(0))
	}
	// Two-phase program seeds (several hot regions) and a tight ceiling that
	// trips inside a run.
	f.Add(int64(8), uint8(0))
	f.Add(int64(3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, limitBits uint8) {
		img, err := ir.Link(workloads.RandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: link of a generated program failed: %v", seed, err)
		}
		dp := Predecode(img)
		limit := int64(1) << 40
		if limitBits != 0 {
			// A fuzzed ceiling: somewhere inside the program's run,
			// exercising the exact-boundary contract of the per-run limit
			// check.
			limit = int64(limitBits) * 37
		}
		cfg := DefaultInOrder()
		cfg.UseTinyMem()
		ref, refErr := InterpretStepwise(cfg, dp, limit)
		got, gotErr := InterpretPredecoded(cfg, dp, limit)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("seed %d limit %d: per-PC err %v, runs err %v", seed, limit, refErr, gotErr)
		}
		if refErr != nil {
			if refErr.Error() != gotErr.Error() {
				t.Fatalf("seed %d limit %d: per-PC err %q, runs err %q", seed, limit, refErr, gotErr)
			}
			return
		}
		if got.Instrs != ref.Instrs {
			t.Fatalf("seed %d limit %d: runs retired %d instrs, per-PC %d", seed, limit, got.Instrs, ref.Instrs)
		}
		if got.Regs != ref.Regs {
			t.Fatalf("seed %d limit %d: final registers diverge:\nruns   %v\nper-PC %v", seed, limit, got.Regs, ref.Regs)
		}
		if got.Mem.Checksum() != ref.Mem.Checksum() {
			t.Fatalf("seed %d limit %d: memory checksum %#x, per-PC %#x", seed, limit, got.Mem.Checksum(), ref.Mem.Checksum())
		}
	})
}
