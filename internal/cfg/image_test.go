package cfg

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/workloads"
)

// checkImageBlocks asserts the structural invariants the threaded compiler
// relies on: the blocks partition [0, len(code)) contiguously, blockOf is
// consistent with the partition, only a block's last instruction can redirect
// control, and every static branch/call/chk/spawn target in the image is a
// block Start.
func checkImageBlocks(t *testing.T, img *ir.Image) {
	t.Helper()
	blocks, blockOf := ImageBlocks(img)
	n := len(img.Code)
	if len(blockOf) != n {
		t.Fatalf("blockOf length %d, code length %d", len(blockOf), n)
	}
	isStart := make(map[int]bool, len(blocks))
	next := 0
	for bi, b := range blocks {
		if b.Start != next {
			t.Fatalf("block %d starts at %d, want %d (gap or overlap)", bi, b.Start, next)
		}
		if b.End <= b.Start || b.End > n {
			t.Fatalf("block %d has bounds [%d,%d)", bi, b.Start, b.End)
		}
		next = b.End
		isStart[b.Start] = true
		for pc := b.Start; pc < b.End; pc++ {
			if blockOf[pc] != int32(bi) {
				t.Fatalf("blockOf[%d] = %d, want %d", pc, blockOf[pc], bi)
			}
			if pc != b.End-1 && img.Code[pc].I.Op.Control() != ir.CtlNone {
				t.Fatalf("block %d has redirecting op %v mid-block at pc %d", bi, img.Code[pc].I.Op, pc)
			}
		}
	}
	if next != n {
		t.Fatalf("blocks cover [0,%d), code length %d", next, n)
	}
	for pc := range img.Code {
		if tgt := img.Code[pc].Tgt; tgt >= 0 && int(tgt) < n && !isStart[int(tgt)] {
			t.Fatalf("pc %d targets %d, which is not a block start", pc, tgt)
		}
	}
}

// TestImageBlocksRandomPrograms: the partition invariants hold over seeded
// random programs, whose linked images mix loops, calls, and predication.
func TestImageBlocksRandomPrograms(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		img, err := ir.Link(workloads.RandomProgram(seed))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkImageBlocks(t, img)
	}
}

// TestImageBlocksBenchmarks: the invariants hold on every paper benchmark.
func TestImageBlocksBenchmarks(t *testing.T) {
	for _, spec := range workloads.All() {
		p, _ := spec.Build(spec.TestScale)
		img, err := ir.Link(p)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		checkImageBlocks(t, img)
	}
}

// TestImageBlocksCallShape pins the partition around a call on a hand-built
// image: the call and the callee's ret each end a block, the callee entry
// is a block start, and so is the post-call PC (ret's landing pad).
func TestImageBlocksCallShape(t *testing.T) {
	p := ir.NewProgram("main")
	f := ir.NewFunc(p, "main")
	e := f.Block("entry")
	e.MovI(14, 1)
	e.Call("leaf")
	post := f.Block("post")
	post.Halt()
	g := ir.NewFunc(p, "leaf")
	l := g.Block("top")
	l.AddI(14, 14, 1)
	l.Ret(0)
	_ = post

	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	checkImageBlocks(t, img)
	blocks, blockOf := ImageBlocks(img)

	var callBlock, retBlock = -1, -1
	for bi, b := range blocks {
		switch img.Code[b.End-1].I.Op {
		case ir.OpCall:
			callBlock = bi
		case ir.OpRet:
			retBlock = bi
		}
	}
	if callBlock < 0 || retBlock < 0 {
		t.Fatalf("call/ret blocks not found: %d %d", callBlock, retBlock)
	}
	if tgt := int(img.Code[blocks[callBlock].End-1].Tgt); blocks[blockOf[tgt]].Start != tgt {
		t.Fatalf("callee entry %d is not a block start", tgt)
	}
	// The instruction after the call must begin a block: it is the return
	// address ret jumps through.
	retAddr := blocks[callBlock].End
	if blocks[blockOf[retAddr]].Start != retAddr {
		t.Fatalf("return address %d is not a block start", retAddr)
	}
}

// TestImageBlocksPredicatedBranch pins that a predicated branch ends its
// block, so its fall-through PC and its taken target both begin blocks, and
// that an unpredicated branch ends its block too.
func TestImageBlocksPredicatedBranch(t *testing.T) {
	p := ir.NewProgram("main")
	f := ir.NewFunc(p, "main")
	e := f.Block("entry")
	e.CmpI(ir.CondLT, 6, 7, 14, 10)
	e.On(6).Br("exit")
	mid := f.Block("mid")
	mid.AddI(15, 15, 1)
	mid.Br("exit")
	x := f.Block("exit")
	x.Halt()
	_ = mid

	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	checkImageBlocks(t, img)
	blocks, blockOf := ImageBlocks(img)
	entry := blocks[blockOf[0]]
	br := img.Code[entry.End-1]
	if br.I.Op != ir.OpBr || br.I.Qp != 6 {
		t.Fatalf("entry block ends in %v, want the predicated branch", br.I.String())
	}
	if blocks[blockOf[entry.End]].Start != entry.End {
		t.Fatalf("fall-through %d is not a block start", entry.End)
	}
	if tgt := int(br.Tgt); blocks[blockOf[tgt]].Start != tgt {
		t.Fatalf("branch target %d is not a block start", tgt)
	}
	midB := blocks[blockOf[entry.End]]
	if img.Code[midB.End-1].I.Op != ir.OpBr || midB.End != int(br.Tgt) {
		t.Fatalf("mid block [%d,%d) does not end in its branch to %d", midB.Start, midB.End, br.Tgt)
	}
}
