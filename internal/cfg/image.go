package cfg

import "ssp/internal/ir"

// ImageBlock is one basic block of a linked image: a maximal straight-line
// run of instructions that control can only enter at Start and only leave at
// End-1. Unlike the function-level Graph (which reflects the architected CFG
// of §3.1.1, where calls fall through and chk.c is a micro-architectural
// event), image blocks are cut for *execution threading*: every instruction
// with a control class (ir.Op.Control) — br, call, callb, ret, chk.c (the
// lightweight-exception detour), spawn (the stub resume), halt, kill — ends
// its block, so every PC the machine can ever jump to is a block Start.
type ImageBlock struct {
	// Start and End delimit the block's PCs: [Start, End).
	Start, End int
}

// ImageBlocks partitions a linked image into execution-threading basic
// blocks and returns them with the PC→block index map. Leaders are the
// linked source blocks' starts (every branch target is one, by Link's
// construction) plus the PC after every instruction with a control class —
// among them the addresses ret, the RSE stub resume, and the call return
// can land on. The partition therefore has the property the threaded compiler
// relies on: any PC a well-formed program can transfer control to is a
// block Start.
func ImageBlocks(img *ir.Image) ([]ImageBlock, []int32) {
	n := len(img.Code)
	if n == 0 {
		return nil, nil
	}
	leader := make([]bool, n+1)
	leader[0] = true
	for pc := 0; pc < n; pc++ {
		if pc == 0 || img.BlockOf[pc] != img.BlockOf[pc-1] {
			leader[pc] = true // linked source-block start
		}
		if img.Code[pc].I.Op.Control() != ir.CtlNone {
			leader[pc+1] = true
		}
	}
	var blocks []ImageBlock
	blockOf := make([]int32, n)
	start := 0
	for pc := 1; pc <= n; pc++ {
		if pc < n && !leader[pc] {
			continue
		}
		bi := len(blocks)
		blocks = append(blocks, ImageBlock{Start: start, End: pc})
		for p := start; p < pc; p++ {
			blockOf[p] = int32(bi)
		}
		start = pc
	}
	return blocks, blockOf
}
