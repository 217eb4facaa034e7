// Package lift recovers the structured program representation (functions,
// basic blocks, branch labels) from a flat linked code image. The paper
// motivates the post-pass design with exactly this capability: "this
// encapsulation allows us to reuse the same tool in a future binary
// translation tool when the source code is not available" (§2.2). With this
// package, the SSP tool chain runs on raw images: lift -> profile -> adapt
// -> relink.
//
// Recovery is classic two-pass disassembly:
//
//  1. Function discovery: entry points are the image entry, every direct
//     call target, every function-address constant (movbr @f), and every
//     recorded symbol. Function extents run to the next entry point.
//  2. Leader discovery within each function: the first instruction, branch
//     and chk.c/spawn targets, and every instruction following a control
//     transfer start new basic blocks.
package lift

import (
	"fmt"
	"sort"

	"ssp/internal/ir"
)

// Lift reconstructs a Program from an image. Round-tripping Link(Lift(img))
// preserves instruction order, IDs, and behaviour (see tests).
func Lift(img *ir.Image) (*ir.Program, error) {
	n := len(img.Code)
	if n == 0 {
		return nil, fmt.Errorf("lift: empty image")
	}
	// Pass 1: function entry points.
	entries := map[int]bool{img.Entry: true}
	for _, pc := range img.FuncEntries {
		entries[pc] = true
	}
	for pc := range img.Code {
		in := &img.Code[pc].I
		if in.TargetKind() == ir.FuncTarget && img.Code[pc].Tgt >= 0 {
			entries[int(img.Code[pc].Tgt)] = true
		}
	}
	starts := make([]int, 0, len(entries))
	for pc := range entries {
		starts = append(starts, pc)
	}
	sort.Ints(starts)
	if starts[0] != 0 {
		// Code before the first entry is unreachable padding; make it a
		// function of its own so nothing is lost.
		starts = append([]int{0}, starts...)
	}
	funcOf := make([]int, n)
	for i, s := range starts {
		end := n
		if i+1 < len(starts) {
			end = starts[i+1]
		}
		for pc := s; pc < end; pc++ {
			funcOf[pc] = i
		}
	}

	// Pass 2: block leaders.
	leader := make([]bool, n+1)
	for _, s := range starts {
		leader[s] = true
	}
	for pc := range img.Code {
		l := &img.Code[pc]
		if l.I.TargetKind() != ir.NoTarget && l.Tgt >= 0 {
			leader[l.Tgt] = true // function targets are entries already
		}
		if l.I.Op.EndsBlock() {
			leader[pc+1] = true
		}
	}

	// Names: keep original symbol names where the image has them.
	nameOf := func(fi int) string {
		s := starts[fi]
		for name, pc := range img.FuncEntries {
			if pc == s {
				return name
			}
		}
		return fmt.Sprintf("fn_%d", s)
	}
	labelOf := func(pc int) string { return fmt.Sprintf("L%d", pc) }

	p := ir.NewProgram(nameOf(funcOf[img.Entry]))
	p.Data = img.Data
	var f *ir.Func
	var b *ir.Block
	for pc := 0; pc < n; pc++ {
		if pc == 0 || funcOf[pc] != funcOf[pc-1] {
			f = p.AddFunc(nameOf(funcOf[pc]))
			b = nil
		}
		if b == nil || leader[pc] {
			label := labelOf(pc)
			if pc == starts[funcOf[pc]] {
				label = "entry"
			}
			b = f.AddBlock(label)
		}
		in := img.Code[pc].I.Clone() // preserves the instruction ID
		// Rewrite targets into lifted labels.
		tgt := int(img.Code[pc].Tgt)
		switch in.TargetKind() {
		case ir.LabelTarget:
			in.Target = liftLocalLabel(starts, funcOf, tgt, labelOf)
		case ir.SpawnTarget:
			if funcOf[tgt] == funcOf[pc] {
				in.Target = liftLocalLabel(starts, funcOf, tgt, labelOf)
			} else {
				in.Target = nameOf(funcOf[tgt]) + "." + liftLocalLabel(starts, funcOf, tgt, labelOf)
			}
		case ir.FuncTarget:
			in.Target = nameOf(funcOf[tgt])
		}
		b.Append(in)
	}
	maxID := 0
	for _, fn := range p.Funcs {
		fn.Renumber()
		// Formal counts are not recoverable from a raw image; assume the
		// full argument-register convention so the dependence analysis
		// keeps every possible argument edge (conservative).
		fn.NumFormals = 8
		fn.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
			if in.ID > maxID {
				maxID = in.ID
			}
		})
	}
	p.ReserveIDs(maxID)
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("lift: invalid recovery: %w", err)
	}
	return p, nil
}

// liftLocalLabel names the block at tgt within its function.
func liftLocalLabel(starts []int, funcOf []int, tgt int, labelOf func(int) string) string {
	if tgt == starts[funcOf[tgt]] {
		return "entry"
	}
	return labelOf(tgt)
}
