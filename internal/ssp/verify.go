package ssp

import (
	"fmt"
	"strings"

	"ssp/internal/ir"
)

// VerifyAttachments statically checks the Figure 7 invariants of an
// SSP-enhanced program:
//
//   - every chk.c targets a stub block that exists in the same function;
//   - a stub block consists of live-in copies (plus at most a countdown
//     staging move) and ends with a spawn;
//   - spawn targets resolve to slice blocks (or stub-local labels);
//   - the live-in slots a slice reads (lir) — in any block of its region, at
//     any position — are a subset of the slots every spawner of that slice
//     writes (liw) before the spawn, so no thread reads an uninitialized
//     live-in. Spawners are stubs and, under chaining, the slices themselves.
//   - every liw/lir slot immediate is within the live-in buffer
//     (ir.LIBSlots); the hardware wraps out-of-range slots modulo the buffer
//     size, silently aliasing two live-ins.
//
// It then certifies every slice region once with the speculation-safety
// analysis (AnalyzeSafety at DefaultSafetyCeiling): no reachable
// instruction can write memory or escape the region — the speculative
// thread can never alter main-thread architectural state (§2) — and every
// path from the slice root reaches kill within a bounded instruction
// budget. It returns that report (nil when a Figure 7 check fails) and the
// first failure.
//
// The code generator runs it after every adaptation and attaches the
// report; it is exported so hand-adapted binaries (and tests) can be
// checked against the same rules.
func VerifyAttachments(p *ir.Program) (*SafetyReport, error) {
	for _, f := range p.Funcs {
		stubs := map[string]*ir.Block{}
		slices := map[string]*ir.Block{}
		for _, b := range f.Blocks {
			if strings.HasPrefix(b.Label, "ssp_stub_") || strings.HasPrefix(b.Label, "hand_stub") {
				stubs[b.Label] = b
			}
			if isSliceRoot(b.Label) {
				slices[b.Label] = b
			}
		}
		// chk.c targets.
		var err error
		f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) {
			if err != nil || in.Op != ir.OpChk {
				return
			}
			tgt := f.BlockByLabel(in.Target)
			if tgt == nil {
				err = fmt.Errorf("ssp: %s: chk.c target %q missing", f.Name, in.Target)
				return
			}
			if _, isStub := stubs[tgt.Label]; !isStub {
				err = fmt.Errorf("ssp: %s: chk.c targets non-stub block %q", f.Name, tgt.Label)
			}
		})
		if err != nil {
			return nil, err
		}
		// Live-in buffer slot range: out-of-range immediates wrap modulo
		// the buffer in hardware, silently aliasing two live-ins.
		f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) {
			if err != nil || (in.Op != ir.OpLiw && in.Op != ir.OpLir) {
				return
			}
			if in.Imm < 0 || in.Imm >= ir.LIBSlots {
				err = fmt.Errorf("ssp: %s/%s: %v slot %d outside live-in buffer [0,%d)", f.Name, b.Label, in.Op, in.Imm, ir.LIBSlots)
			}
		})
		if err != nil {
			return nil, err
		}
		// lir demand per slice: every slot read anywhere in the slice's
		// region — continuation blocks and post-prologue reads included.
		lirReads := map[string]map[int64]bool{}
		for label := range slices {
			reads := map[int64]bool{}
			for _, sb := range sliceRegionBlocks(f, label) {
				for _, in := range sb.Instrs {
					if in.Op == ir.OpLir {
						reads[in.Imm] = true
					}
				}
			}
			lirReads[label] = reads
		}
		// Stub shape.
		for label, stub := range stubs {
			n := len(stub.Instrs)
			if n == 0 || stub.Instrs[n-1].Op != ir.OpSpawn {
				return nil, fmt.Errorf("ssp: %s/%s: stub does not end in spawn", f.Name, label)
			}
			for _, in := range stub.Instrs[:n-1] {
				switch in.Op {
				case ir.OpLiw:
				case ir.OpMovI, ir.OpMov:
					// countdown staging through the reserved scratch
				default:
					return nil, fmt.Errorf("ssp: %s/%s: unexpected %v in stub", f.Name, label, in)
				}
			}
		}
		// Every spawn site — a stub's terminal spawn or a chaining slice's
		// handoff spawn — must write (liw, earlier in the same block) every
		// slot its target slice reads.
		f.Instrs(func(b *ir.Block, i int, in *ir.Instr) {
			if err != nil || in.Op != ir.OpSpawn {
				return
			}
			if _, isStub := stubs[b.Label]; !isStub && !inSliceRegion(slices, b.Label) {
				err = fmt.Errorf("ssp: %s/%s: spawn outside stub or slice region", f.Name, b.Label)
				return
			}
			body := sliceBody(f, slices, in.Target)
			if body == nil {
				err = fmt.Errorf("ssp: %s/%s: spawn target %q is not a slice block", f.Name, b.Label, in.Target)
				return
			}
			written := map[int64]bool{}
			for _, prev := range b.Instrs[:i] {
				if prev.Op == ir.OpLiw {
					written[prev.Imm] = true
				}
			}
			for slot := range lirReads[in.Target] {
				if !written[slot] {
					err = fmt.Errorf("ssp: %s/%s: slice %s reads live-in slot %d its spawner never writes", f.Name, b.Label, in.Target, slot)
					return
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	rep := AnalyzeSafety(p, DefaultSafetyCeiling)
	return rep, rep.Err()
}

// isSliceRoot reports whether a block label names a slice root: the tool's
// "ssp_slice_N" or the hand adaptations' "hand_slice". Continuation blocks
// such as "ssp_slice_3_loop" belong to their root's region.
func isSliceRoot(label string) bool {
	rest, ok := strings.CutPrefix(label, "ssp_slice_")
	return ok && !strings.Contains(rest, "_") || label == "hand_slice"
}

// sliceBody resolves a spawn target to its slice block within f.
func sliceBody(f *ir.Func, slices map[string]*ir.Block, target string) *ir.Block {
	if b, ok := slices[target]; ok {
		return b
	}
	// Cross-function targets ("fn.label") are not generated by the tool.
	return nil
}

// inSliceRegion reports whether the labeled block belongs to any root
// slice's region.
func inSliceRegion(slices map[string]*ir.Block, label string) bool {
	for root := range slices {
		if label == root || strings.HasPrefix(label, root+"_") {
			return true
		}
	}
	return false
}

// sliceRegionBlocks returns the attachment blocks belonging to one slice:
// the slice block itself plus its generated continuation blocks
// (label-prefixed, e.g. the basic-loop body and tail).
func sliceRegionBlocks(f *ir.Func, label string) []*ir.Block {
	var out []*ir.Block
	for _, b := range f.Blocks {
		if b.Label == label || strings.HasPrefix(b.Label, label+"_") {
			out = append(out, b)
		}
	}
	return out
}
