// Package cfg provides control-flow analyses over IR functions: CFG
// construction, dominators and postdominators, natural-loop detection, and
// the hierarchical region graph of §3.1.1 that drives region-based slicing.
package cfg

import (
	"fmt"

	"ssp/internal/ir"
)

// Graph is the control-flow graph of a single function. Node i is the block
// with Index i in Func.Blocks.
type Graph struct {
	F     *ir.Func
	Succs [][]int
	Preds [][]int
}

// Build computes the CFG of f. Control-transfer instructions (br, ret, halt,
// kill) must appear only as the final instruction of a block; Build returns
// an error otherwise. Calls and chk.c are not CFG edges: a call returns to
// the following instruction, and a chk.c stub detour is a micro-architectural
// event (§3.4.2), not an architected control transfer of the main program.
func Build(f *ir.Func) (*Graph, error) {
	f.Renumber()
	n := len(f.Blocks)
	g := &Graph{F: f, Succs: make([][]int, n), Preds: make([][]int, n)}
	for bi, b := range f.Blocks {
		for ii, in := range b.Instrs {
			if in.Op.EndsBlock() && ii != len(b.Instrs)-1 {
				return nil, fmt.Errorf("cfg: %s/%s: control transfer %q not at block end", f.Name, b.Label, in)
			}
		}
		t := b.Terminator()
		addSucc := func(s int) { g.Succs[bi] = append(g.Succs[bi], s) }
		fall := func() {
			if bi+1 < n {
				addSucc(bi + 1)
			}
		}
		switch {
		case t == nil:
			fall()
		case t.Op == ir.OpBr:
			tgt := f.BlockByLabel(t.Target)
			if tgt == nil {
				return nil, fmt.Errorf("cfg: %s/%s: unknown branch target %q", f.Name, b.Label, t.Target)
			}
			addSucc(tgt.Index)
			if t.Qp != ir.PTrue {
				fall()
			}
		case t.Op.EndsBlock() && t.Qp == ir.PTrue:
			// no successors
		default:
			fall() // a predicated exit may fall through
		}
	}
	for bi, ss := range g.Succs {
		for _, s := range ss {
			g.Preds[s] = append(g.Preds[s], bi)
		}
	}
	return g, nil
}

// RPO returns the blocks reachable from entry in reverse postorder.
func (g *Graph) RPO() []int {
	n := len(g.Succs)
	seen := make([]bool, n)
	var post []int
	var dfs func(int)
	dfs = func(b int) {
		seen[b] = true
		for _, s := range g.Succs[b] {
			if !seen[s] {
				dfs(s)
			}
		}
		post = append(post, b)
	}
	if n > 0 {
		dfs(0)
	}
	// reverse
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Reachable returns the set of blocks reachable from entry.
func (g *Graph) Reachable() []bool {
	seen := make([]bool, len(g.Succs))
	stack := []int{0}
	if len(g.Succs) == 0 {
		return seen
	}
	seen[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range g.Succs[b] {
			if !seen[s] {
				seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	return seen
}
