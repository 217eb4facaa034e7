package ssp

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"

	"ssp/internal/cfg"
	"ssp/internal/ir"
)

// This file is the speculation-safety verifier, the one static check of an
// SSP-enhanced program: an analysis that proves the paper's §2 safety
// argument — precomputation never alters main-thread architectural state
// and never runs unboundedly — instead of spot-checking it. The main thread
// meets the attachment only through a chk.c, which diverts it into a stub
// (whatever block a chk.c targets) that it runs before resuming. So on the
// main-thread side it checks the Figure 7 layout (attachments):
//
//   - trigger: a chk.c targets no slice block, and a stub only copies
//     live-ins (liw) and stages ScratchGR (mov/movi), then ends in an
//     unpredicated spawn; it writes no other register. When a stub writes
//     ScratchGR, no main-thread code outside the stubs reads it. A spawn
//     occurs only in a stub or a slice region;
//   - live-ins: every spawn targets a slice root and writes, before it in
//     its block, every in-range slot the slice's region reads (lir), and
//     every liw/lir slot in the program is inside the live-in buffer.
//
// Per slice region (its CFG from the root) it discharges three obligation
// families:
//
//   - termination: every reachable path from the slice root reaches a kill,
//     and every loop backedge is bounded — either statically by the
//     countdown/chaining structure (§3.2.1.1 stages a trip-count bound
//     through the live-in buffer) or dynamically by a latch predicate that
//     is recomputed from loop-varying data each iteration, in which case the
//     hardware ceiling (sim.Config.MaxSpecInstrs) is the proven bound;
//   - isolation: no reachable instruction in the region can write memory,
//     transfer control outside the region, raise a chk.c, or spawn beyond
//     the chain bound. Reachability is path-sensitive over predicated
//     branches and kills: an instruction shadowed by an unconditional kill
//     discharges its obligation vacuously, while one reachable on any arm
//     must satisfy it — the weakest precondition of "region stays isolated"
//     along every arm;
//   - budget: a per-activation instruction bound (the certificate) computed
//     as the longest acyclic path plus each bounded loop's iteration bound
//     times its body, checked against the ceiling. Both cycle engines kill a
//     speculative thread at exactly MaxSpecInstrs executed instructions, so
//     a certificate at or under the ceiling is an unconditional guarantee.
//
// The analysis is deliberately structural, not symbolic: it recognizes the
// exact shapes the code generator and the paper's hand adaptations emit
// (countdown staging through the live-in buffer, latch-guarded chains) and
// rejects everything it cannot bound, so it is conservative on adversarial
// input and exact on tool output.

// DefaultSafetyCeiling is the per-activation instruction ceiling the
// verifier assumes when the caller has no machine configuration at hand. It
// mirrors sim.DefaultInOrder/DefaultOOO's MaxSpecInstrs (a check-package
// test pins the agreement).
const DefaultSafetyCeiling = 1 << 20

// SafetyClass names one family of speculation-safety violations. The
// negative-test harness (InjectUnsafe) can manufacture a program violating
// each class, and every class carries a distinct rejection reason.
type SafetyClass string

const (
	// SafetyStore: a reachable instruction in a slice region writes memory.
	SafetyStore SafetyClass = "store"
	// SafetyEscape: a reachable instruction transfers control outside the
	// slice region (branch to foreign label, call, return, halt, chk.c, or
	// a spawn whose target is not a slice).
	SafetyEscape SafetyClass = "escape"
	// SafetyNoKill: some reachable path leaves the slice region without
	// executing kill (e.g. a kill present on only one branch arm).
	SafetyNoKill SafetyClass = "no-kill"
	// SafetyUnboundedLoop: a backedge whose guard is unconditional or never
	// recomputed inside the loop — once taken, taken forever.
	SafetyUnboundedLoop SafetyClass = "unbounded-backedge"
	// SafetyUnboundedChain: a chained spawn that is unguarded or whose
	// guard cannot change from link to link — the chain respawns forever.
	SafetyUnboundedChain SafetyClass = "unbounded-chain"
	// SafetyLiveInRange: a reachable liw/lir slot immediate outside the
	// live-in buffer; the hardware wraps it, silently aliasing two live-ins.
	SafetyLiveInRange SafetyClass = "live-in-range"
	// SafetyOverBudget: the statically-certified instruction budget exceeds
	// the hardware ceiling, so the slice would be truncated mid-flight.
	SafetyOverBudget SafetyClass = "over-budget"
	// SafetyTrigger: the main-thread attachment breaks the Figure 7 layout:
	// a chk.c targets a slice block, a stub (a chk.c target) is not live-in
	// copies and ScratchGR staging ending in an unpredicated spawn (so it
	// may write a main-thread register), main-thread code reads the
	// ScratchGR a stub writes, or a spawn sits outside any stub or slice.
	SafetyTrigger SafetyClass = "trigger"
	// SafetyLiveIn: a spawn leaves unwritten an in-range live-in slot its
	// target slice reads, so the new thread reads a stale value.
	SafetyLiveIn SafetyClass = "live-in"
)

// The live-in slot masks below hold one bit per slot.
var _ [64 - ir.LIBSlots]struct{}

// SafetyViolation is one discharged-in-the-negative proof obligation: where
// (the slice root, or for a violation outside slice regions the stub or
// main-thread block, as "func.label"), which class, and the
// instruction-level detail.
type SafetyViolation struct {
	Slice  string      `json:"slice"`
	Class  SafetyClass `json:"class"`
	Detail string      `json:"detail"`
}

func (v SafetyViolation) String() string {
	return fmt.Sprintf("%s: %s: %s", v.Slice, v.Class, v.Detail)
}

// SliceSafety is one slice's certificate: the per-activation instruction
// budget, the proof dimensions, and the obligations discharged.
type SliceSafety struct {
	// Slice is the root block key ("func.label").
	Slice string `json:"slice"`
	// Blocks lists the region's block keys ("func.label"), root first —
	// the dynamic oracle attributes speculative PCs to budgets through it.
	Blocks []string `json:"blocks"`
	// Budget is the certified per-activation instruction bound.
	Budget int64 `json:"budget"`
	// Static is true when Budget derives purely from the countdown/chaining
	// structure; false when a data-bounded loop makes the hardware ceiling
	// the proven bound.
	Static bool `json:"static"`
	// Paths counts the acyclic root-to-exit paths the proof covered.
	Paths int64 `json:"paths"`
	// Backedges counts the region's loop backedges.
	Backedges int `json:"backedges"`
	// ChainBound is the certified chain depth: 0 when the slice never
	// respawns, -1 when the chain is data-guarded (depth decided by the
	// precomputed values), else the static countdown bound.
	ChainBound int64 `json:"chain_bound"`
	// Obligations lists the discharged proof obligations, human-readable.
	Obligations []string `json:"obligations"`
}

// SafetyReport is the machine-readable outcome of AnalyzeSafety: one
// certificate per slice plus every violation found. It rides ssp.Report
// (the tool self-certifies each adaptation), check.Seed, and the
// serving layer's 422 response for unsafe submitted IR.
type SafetyReport struct {
	// Ceiling is the per-activation instruction ceiling the certificates
	// were checked against (sim.Config.MaxSpecInstrs).
	Ceiling int64 `json:"ceiling"`
	// Slices holds one certificate per analyzed slice.
	Slices []SliceSafety `json:"slices"`
	// Violations lists every failed obligation; empty means the program is
	// proven speculation-safe.
	Violations []SafetyViolation `json:"violations,omitempty"`
}

// Err folds the report's violations into a single error, nil when the
// program is proven safe.
func (r *SafetyReport) Err() error {
	if len(r.Violations) == 0 {
		return nil
	}
	v := r.Violations[0]
	if len(r.Violations) == 1 {
		return fmt.Errorf("ssp: unsafe slice %s", v)
	}
	return fmt.Errorf("ssp: unsafe slice %s (and %d more violations)", v, len(r.Violations)-1)
}

// MaxBudget returns the largest per-slice budget certified, 0 when the
// program has no slices.
func (r *SafetyReport) MaxBudget() int64 {
	var m int64
	for _, s := range r.Slices {
		if s.Budget > m {
			m = s.Budget
		}
	}
	return m
}

// Budgets returns the block-key -> budget map the dynamic oracle consumes:
// every block of a slice region maps to that slice's certified budget.
func (r *SafetyReport) Budgets() map[string]int64 {
	out := make(map[string]int64)
	for _, s := range r.Slices {
		for _, b := range s.Blocks {
			out[b] = s.Budget
		}
	}
	return out
}

// AnalyzeSafety runs the speculation-safety analysis over a program against
// the given per-activation instruction ceiling: the attachment checks over
// every block and the region proof of every slice (tool-generated
// ssp_slice_* roots and hand-adapted hand_slice blocks). It returns every
// certificate and every violation. A program without chk.c, spawn, liw, lir
// or slices yields an empty, violation-free report.
func AnalyzeSafety(p *ir.Program, ceiling int64) *SafetyReport {
	rep := &SafetyReport{Ceiling: ceiling}
	var at attachments
	for _, f := range p.Funcs {
		var roots []string
		for _, b := range f.Blocks {
			if !isSliceRoot(b.Label) {
				continue
			}
			roots = append(roots, b.Label)
			cert, viols := analyzeSlice(f, b.Label, ceiling)
			rep.Slices = append(rep.Slices, cert)
			rep.Violations = append(rep.Violations, viols...)
		}
		at.check(f, roots)
	}
	rep.Violations = append(rep.Violations, at.viols...)
	if at.stubScratch {
		rep.Violations = append(rep.Violations, at.scratchReads...)
	}
	return rep
}

// attachments accumulates the attachment checks over a program's functions.
type attachments struct {
	viols []SafetyViolation
	// scratchReads are main-thread reads of ScratchGR, violations once any
	// stub writes it (stubScratch).
	scratchReads []SafetyViolation
	stubScratch  bool
	uses         []ir.Loc
}

func (a *attachments) bad(key string, class SafetyClass, format string, args ...any) {
	a.viols = append(a.viols, SafetyViolation{Slice: key, Class: class, Detail: fmt.Sprintf(format, args...)})
}

// check checks f's blocks: the live-in slot range everywhere, the stubs
// (the blocks f's chk.c instructions target), and the main-thread blocks
// (neither stubs nor in a region of roots). analyzeSlice proves the regions.
func (a *attachments) check(f *ir.Func, roots []string) {
	regionRoot := func(label string) string {
		for _, r := range roots {
			if inRegion(label, r) {
				return r
			}
		}
		return ""
	}
	stubs := map[*ir.Block]bool{} // Validate resolves every chk.c target in f
	f.Instrs(func(b *ir.Block, _ int, in *ir.Instr) {
		switch {
		case in.Op != ir.OpChk:
		case regionRoot(in.Target) != "":
			a.bad(f.Name+"."+b.Label, SafetyTrigger, "chk.c diverts the main thread into slice block %s", in.Target)
		default:
			stubs[f.BlockByLabel(in.Target)] = true
		}
	})
	for _, b := range f.Blocks {
		root := regionRoot(b.Label)
		key := f.Name + "." + cmp.Or(root, b.Label)
		if root == "" && stubs[b] {
			a.checkStub(f, b, key)
		}
		for _, in := range b.Instrs {
			if (in.Op == ir.OpLiw || in.Op == ir.OpLir) && !inLIB(in.Imm) {
				a.bad(key, SafetyLiveInRange, "%s: %v slot %d outside live-in buffer [0,%d)", b.Label, in.Op, in.Imm, ir.LIBSlots)
			}
			if root != "" || stubs[b] {
				continue // analyzeSlice proves the regions; checkStub the stubs
			}
			if in.Op == ir.OpSpawn {
				a.bad(key, SafetyTrigger, "%v outside any stub or slice region", in)
			}
			if a.uses = in.AppendUses(a.uses[:0]); slices.Contains(a.uses, ir.GRLoc(ScratchGR)) {
				a.scratchReads = append(a.scratchReads, SafetyViolation{Slice: key, Class: SafetyTrigger,
					Detail: fmt.Sprintf("main-thread %v reads %v, which a stub writes", in, ScratchGR)})
			}
		}
	}
}

// checkStub checks one stub: the main thread runs it, so it may write only
// live-in slots and ScratchGR, and its terminal spawn hands a slice every
// slot the slice reads.
func (a *attachments) checkStub(f *ir.Func, b *ir.Block, key string) {
	body, sp := b.Instrs, b.Terminator()
	if sp != nil && sp.Op == ir.OpSpawn && sp.Qp == ir.PTrue {
		body = body[:len(body)-1]
		if !isSliceRoot(sp.Target) {
			a.bad(key, SafetyEscape, "stub spawns %q, which is not a slice root", sp.Target)
		} else if slot := unwritten(f, b, len(body)); slot >= 0 {
			a.bad(key, SafetyLiveIn, "slice %s reads live-in slot %d the stub never writes", sp.Target, slot)
		}
	} else {
		a.bad(key, SafetyTrigger, "stub does not end in an unpredicated spawn")
	}
	for _, in := range body {
		switch {
		case in.Op == ir.OpLiw:
		case (in.Op == ir.OpMov || in.Op == ir.OpMovI) && in.Rd == ScratchGR:
			a.stubScratch = true
		default:
			a.bad(key, SafetyTrigger, "%v in a stub, which may only copy live-ins and stage %v", in, ScratchGR)
		}
	}
}

// unwritten returns the lowest in-range live-in slot that the region of the
// slice spawned by b.Instrs[i] reads and no liw before it in b writes, or -1
// when the spawn hands over every slot.
func unwritten(f *ir.Func, b *ir.Block, i int) int {
	var reads uint64
	for _, sb := range sliceRegionBlocks(f, b.Instrs[i].Target) {
		reads |= slots(sb.Instrs, ir.OpLir)
	}
	if missing := reads &^ slots(b.Instrs[:i], ir.OpLiw); missing != 0 {
		return bits.TrailingZeros64(missing)
	}
	return -1
}

// slots returns the mask of the in-range live-in slots the instructions
// with opcode op (liw or lir) name.
func slots(instrs []*ir.Instr, op ir.Op) uint64 {
	var m uint64
	for _, in := range instrs {
		if in.Op == op && inLIB(in.Imm) {
			m |= 1 << in.Imm
		}
	}
	return m
}

// inLIB reports whether a liw/lir slot immediate is inside the live-in
// buffer; the hardware wraps one outside it, silently aliasing two live-ins.
func inLIB(slot int64) bool { return slot >= 0 && slot < ir.LIBSlots }

// isSliceRoot reports whether a block label names a slice root: the tool's
// "ssp_slice_N" or the hand adaptations' "hand_slice". Continuation blocks
// such as "ssp_slice_3_loop" belong to their root's region.
func isSliceRoot(label string) bool {
	rest, ok := strings.CutPrefix(label, "ssp_slice_")
	return ok && !strings.Contains(rest, "_") || label == "hand_slice"
}

// inRegion reports whether a block label belongs to the region of the slice
// root: the root itself or a continuation block "root_*".
func inRegion(label, root string) bool {
	rest, ok := strings.CutPrefix(label, root)
	return ok && (rest == "" || rest[0] == '_')
}

// sliceRegionBlocks returns the blocks of f in the region of the slice root,
// in layout order.
func sliceRegionBlocks(f *ir.Func, root string) []*ir.Block {
	var out []*ir.Block
	for _, b := range f.Blocks {
		if inRegion(b.Label, root) {
			out = append(out, b)
		}
	}
	return out
}

// node is one instruction-level CFG position: region-block index and
// instruction index within it (idx == len(Instrs) is the fallthrough
// position past the block's end).
type node struct{ b, i int }

// blockEdge is one reachable block-level control transfer inside a region.
type blockEdge struct {
	from, to int
	back     bool
	// guard is the branch creating the edge; nil for fallthrough edges.
	guard *ir.Instr
}

// chainSpawn is one reachable in-region spawn (a chain handoff) at
// instruction i of region block bi.
type chainSpawn struct {
	bi, i int
	in    *ir.Instr
}

// analyzeSlice proves (or refutes) one slice region's safety and computes
// its budget certificate.
func analyzeSlice(f *ir.Func, root string, ceiling int64) (SliceSafety, []SafetyViolation) {
	key := f.Name + "." + root
	blocks := sliceRegionBlocks(f, root)
	cert := SliceSafety{Slice: key, ChainBound: 0}
	var viols []SafetyViolation
	bad := func(class SafetyClass, format string, args ...any) {
		viols = append(viols, SafetyViolation{Slice: key, Class: class, Detail: fmt.Sprintf(format, args...)})
	}

	// Region indexing: block label -> region index, and each region block's
	// layout successor (for fallthrough).
	idx := map[string]int{}
	for i, b := range blocks {
		idx[b.Label] = i
		cert.Blocks = append(cert.Blocks, f.Name+"."+b.Label)
	}
	layoutNext := make([]*ir.Block, len(blocks)) // nil: falls off the function
	for i, b := range blocks {
		for bi, fb := range f.Blocks {
			if fb == b && bi+1 < len(f.Blocks) {
				layoutNext[i] = f.Blocks[bi+1]
			}
		}
	}

	// Path-sensitive reachability walk over instruction positions. A
	// predicated instruction always has a nullified fall-through arm; kill
	// and branch end the taken arm. Every reachable isolation obligation is
	// checked here, and the reachable block-level edges feed the loop and
	// budget analyses below.
	seen := map[node]bool{}
	var edges []blockEdge
	var spawns []chainSpawn
	fellOff := map[int]bool{} // region blocks with a reachable non-kill exit
	work := []node{{idx[root], 0}}
	push := func(n node) {
		if !seen[n] {
			seen[n] = true
			work = append(work, n)
		}
	}
	seen[work[0]] = true
	edgeSeen := map[[2]int]map[*ir.Instr]bool{}
	addEdge := func(from, to int, guard *ir.Instr) {
		k := [2]int{from, to}
		if edgeSeen[k] == nil {
			edgeSeen[k] = map[*ir.Instr]bool{}
		}
		if !edgeSeen[k][guard] {
			edgeSeen[k][guard] = true
			edges = append(edges, blockEdge{from: from, to: to, guard: guard})
		}
	}
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		b := blocks[n.b]
		if n.i >= len(b.Instrs) {
			// Past the block's end: fall through in layout order.
			next := layoutNext[n.b]
			if next == nil {
				if !fellOff[n.b] {
					fellOff[n.b] = true
					bad(SafetyNoKill, "path through %s falls off the function without kill", b.Label)
				}
				continue
			}
			if ni, ok := idx[next.Label]; ok {
				addEdge(n.b, ni, nil)
				push(node{ni, 0})
				continue
			}
			if !fellOff[n.b] {
				fellOff[n.b] = true
				bad(SafetyNoKill, "path through %s falls out of the slice region into %s without kill", b.Label, next.Label)
			}
			continue
		}
		in := b.Instrs[n.i]
		predicated := in.Qp != ir.PTrue
		switch in.Op {
		case ir.OpSt, ir.OpFSt:
			bad(SafetyStore, "%s: reachable store %v", b.Label, in)
			push(node{n.b, n.i + 1})
		case ir.OpCall, ir.OpCallB, ir.OpRet, ir.OpHalt, ir.OpChk:
			bad(SafetyEscape, "%s: reachable %v leaves the slice region", b.Label, in)
			if predicated {
				push(node{n.b, n.i + 1})
			}
		case ir.OpKill:
			// Taken arm terminates the activation: obligation met. The
			// nullified arm continues.
			if predicated {
				push(node{n.b, n.i + 1})
			}
		case ir.OpBr:
			if ti, ok := idx[in.Target]; ok {
				addEdge(n.b, ti, in)
				push(node{ti, 0})
			} else {
				bad(SafetyEscape, "%s: reachable branch to %q leaves the slice region", b.Label, in.Target)
			}
			if predicated {
				push(node{n.b, n.i + 1})
			}
		case ir.OpSpawn:
			if isSliceRoot(in.Target) {
				spawns = append(spawns, chainSpawn{bi: n.b, i: n.i, in: in})
			} else {
				bad(SafetyEscape, "%s: reachable spawn targets %q, which is not a slice root", b.Label, in.Target)
			}
			push(node{n.b, n.i + 1})
		default:
			push(node{n.b, n.i + 1})
		}
	}

	// Reachable instruction count per block (the budget weights) and the
	// reachable instruction list (the loop analyses below scan it).
	weight := make([]int64, len(blocks))
	var reachInstrs int64
	reachable := func(bi, i int) bool { return seen[node{bi, i}] }
	for bi, b := range blocks {
		for i := range b.Instrs {
			if reachable(bi, i) {
				weight[bi]++
				reachInstrs++
			}
		}
	}

	// Loop structure over the reachable block graph. The graph puts the
	// root at node 0, cfg's entry: region index r is node r with the root
	// and index 0 swapped, so toNode is its own inverse. The retreating
	// edges of its reverse postorder are the DFS back edges (removing them
	// leaves the graph acyclic), and the dominator tree separates
	// structured (natural) loops from irreducible tangles the budget cannot
	// decompose.
	rootIdx := idx[root]
	toNode := func(r int) int {
		switch r {
		case rootIdx:
			return 0
		case 0:
			return rootIdx
		}
		return r
	}
	g := &cfg.Graph{Succs: make([][]int, len(blocks)), Preds: make([][]int, len(blocks))}
	for _, e := range edges {
		from, to := toNode(e.from), toNode(e.to)
		g.Succs[from] = append(g.Succs[from], to)
		g.Preds[to] = append(g.Preds[to], from)
	}
	order := make([]int, len(blocks))
	for i, n := range g.RPO() {
		order[n] = i
	}
	for i := range edges {
		edges[i].back = order[toNode(edges[i].to)] <= order[toNode(edges[i].from)]
	}
	dom := cfg.Dominators(g)

	// Classify every backedge: unconditional or stuck guards are
	// violations; countdown guards yield a static iteration bound; latch
	// guards recomputed from loop-varying data are ceiling-bounded.
	type loop struct {
		head, tail int
		body       []int
		bound      int64 // 0: dynamic (ceiling-bounded)
	}
	var loops []loop
	dynamic := false
	for _, e := range edges {
		if !e.back {
			continue
		}
		cert.Backedges++
		head, tail := e.to, e.from
		body := loopBody(g, toNode, head, tail)
		if e.guard == nil || e.guard.Qp == ir.PTrue {
			bad(SafetyUnboundedLoop, "unconditional backedge %s -> %s", blocks[tail].Label, blocks[head].Label)
			continue
		}
		q := e.guard.Qp
		def := guardDef(blocks, body, reachable, q)
		if def == nil {
			bad(SafetyUnboundedLoop, "backedge %s -> %s: guard p%d is never recomputed inside the loop — once true it stays true", blocks[tail].Label, blocks[head].Label, q)
			continue
		}
		if !loopVarying(blocks, body, reachable, def) {
			bad(SafetyUnboundedLoop, "backedge %s -> %s: guard p%d compares loop-invariant values", blocks[tail].Label, blocks[head].Label, q)
			continue
		}
		if !dom.Dominates(toNode(head), toNode(tail)) {
			// Irreducible: sound fallback is the hardware ceiling.
			dynamic = true
			cert.Obligations = append(cert.Obligations, fmt.Sprintf("termination: irreducible backedge %s -> %s bounded by the hardware ceiling (%d)", blocks[tail].Label, blocks[head].Label, ceiling))
			loops = append(loops, loop{head: head, tail: tail, body: body, bound: 0})
			continue
		}
		if b, d := countdownBound(f, blocks, body, reachable, root, def); b > 0 {
			loops = append(loops, loop{head: head, tail: tail, body: body, bound: b})
			cert.Obligations = append(cert.Obligations, fmt.Sprintf("termination: backedge %s -> %s bounded by countdown (%d iterations, step %d)", blocks[tail].Label, blocks[head].Label, b, d))
		} else {
			dynamic = true
			loops = append(loops, loop{head: head, tail: tail, body: body, bound: 0})
			cert.Obligations = append(cert.Obligations, fmt.Sprintf("termination: backedge %s -> %s latch-guarded (p%d recomputed per iteration); hardware ceiling %d applies", blocks[tail].Label, blocks[head].Label, q, ceiling))
		}
	}

	// Classify every chain handoff (reachable in-region spawn); a bounded
	// one must also hand its target every slot the target reads.
	for _, cs := range spawns {
		in := cs.in
		if in.Qp == ir.PTrue {
			bad(SafetyUnboundedChain, "%s: unguarded chained spawn of %q respawns forever", blocks[cs.bi].Label, in.Target)
			continue
		}
		all := allRegionIndexes(blocks)
		def := guardDef(blocks, all, reachable, in.Qp)
		if def == nil {
			bad(SafetyUnboundedChain, "%s: chained spawn guard p%d is never computed in the slice — chain depth unbounded", blocks[cs.bi].Label, in.Qp)
			continue
		}
		if b, _ := countdownBound(f, blocks, all, reachable, root, def); b > 0 {
			if b > cert.ChainBound {
				cert.ChainBound = b
			}
			cert.Obligations = append(cert.Obligations, fmt.Sprintf("chain: spawn in %s countdown-guarded, depth <= %d", blocks[cs.bi].Label, b))
		} else if regionVarying(blocks, all, reachable, def) {
			cert.ChainBound = -1
			cert.Obligations = append(cert.Obligations, fmt.Sprintf("chain: spawn in %s data-guarded (p%d recomputed per link from advanced values)", blocks[cs.bi].Label, in.Qp))
		} else {
			bad(SafetyUnboundedChain, "%s: chained spawn guard p%d depends only on unmodified live-ins — every link is identical", blocks[cs.bi].Label, in.Qp)
			continue
		}
		if slot := unwritten(f, blocks[cs.bi], cs.i); slot >= 0 {
			bad(SafetyLiveIn, "%s: slice %s reads live-in slot %d the chained spawn never writes", blocks[cs.bi].Label, in.Target, slot)
		}
	}

	// Budget certificate: collapse bounded loops innermost-first into their
	// headers, then take the longest acyclic path. Any ceiling-bounded loop
	// collapses the whole certificate to the ceiling — still a sound bound,
	// because both engines kill a speculative thread at exactly the ceiling.
	sort.SliceStable(loops, func(i, j int) bool { return len(loops[i].body) < len(loops[j].body) })
	ew := append([]int64(nil), weight...)
	for _, l := range loops {
		if l.bound == 0 {
			continue
		}
		var body int64
		for _, bi := range l.body {
			body = satAdd(body, ew[bi], ceiling)
		}
		ew[l.head] = satAdd(ew[l.head], satMul(l.bound, body, ceiling), ceiling)
	}
	longest, paths := dagPaths(len(blocks), edges, ew, idx[root], ceiling)
	if dynamic {
		cert.Budget = ceiling
		cert.Static = false
	} else {
		cert.Budget = longest
		cert.Static = true
		if cert.Budget > ceiling {
			bad(SafetyOverBudget, "certified budget %d exceeds the hardware ceiling %d", cert.Budget, ceiling)
		}
	}
	cert.Paths = paths

	if len(viols) == 0 {
		cert.Obligations = append(cert.Obligations,
			fmt.Sprintf("isolation: %d reachable instructions free of stores, calls, and region escapes", reachInstrs),
			fmt.Sprintf("termination: all %d acyclic paths from %s reach kill", cert.Paths, root),
			fmt.Sprintf("budget: %d <= ceiling %d", cert.Budget, ceiling))
	}
	return cert, viols
}

// loopBody returns the region indexes of the loop closed by backedge
// tail -> head, in layout order: head plus everything that reaches tail
// without passing through head (walked over the graph's predecessors).
func loopBody(g *cfg.Graph, toNode func(int) int, head, tail int) []int {
	in := make([]bool, len(g.Preds))
	in[head] = true
	in[tail] = true
	work := []int{tail}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		if b == head {
			continue
		}
		for _, p := range g.Preds[toNode(b)] {
			if p = toNode(p); !in[p] {
				in[p] = true
				work = append(work, p)
			}
		}
	}
	var body []int
	for b, ok := range in {
		if ok {
			body = append(body, b)
		}
	}
	return body
}

// allRegionIndexes returns every region block index (the "body" a chain
// guard may be computed in: the whole activation).
func allRegionIndexes(blocks []*ir.Block) []int {
	out := make([]int, len(blocks))
	for i := range out {
		out[i] = i
	}
	return out
}

// guardDef finds a reachable compare inside the given blocks defining
// predicate q (on either output), preferring the last one found in block
// order so same-block recomputation wins.
func guardDef(blocks []*ir.Block, body []int, reachable func(int, int) bool, q ir.PR) *ir.Instr {
	var def *ir.Instr
	for _, bi := range body {
		for i, in := range blocks[bi].Instrs {
			if !reachable(bi, i) {
				continue
			}
			if in.Op == ir.OpCmp && (in.Pd1 == q || in.Pd2 == q) {
				def = in
			}
		}
	}
	return def
}

// loopVarying reports whether any GR operand of the guard compare is
// (re)defined by a reachable instruction inside the loop body — the
// precondition for the guard to ever change value between iterations.
func loopVarying(blocks []*ir.Block, body []int, reachable func(int, int) bool, def *ir.Instr) bool {
	return operandDefined(blocks, body, reachable, def, func(in *ir.Instr) bool { return true })
}

// regionVarying reports whether any GR operand of the guard compare has a
// non-live-in-restore definition in the region: the chain's guard depends on
// a value the activation computes (the advanced recurrence), so successive
// links see different data.
func regionVarying(blocks []*ir.Block, body []int, reachable func(int, int) bool, def *ir.Instr) bool {
	return operandDefined(blocks, body, reachable, def, func(in *ir.Instr) bool { return in.Op != ir.OpLir })
}

func operandDefined(blocks []*ir.Block, body []int, reachable func(int, int) bool, def *ir.Instr, admit func(*ir.Instr) bool) bool {
	ops := guardOperands(def)
	var defs []ir.Loc
	for _, bi := range body {
		for i, in := range blocks[bi].Instrs {
			if in == def || !reachable(bi, i) || !admit(in) {
				continue
			}
			defs = in.AppendDefs(defs[:0])
			for _, l := range defs {
				if r, ok := l.IsGR(); ok && r != 0 && ops[r] {
					return true
				}
			}
		}
	}
	return false
}

// guardOperands returns the GR operands of a compare (r0 excluded: it is
// hardwired zero and cannot vary).
func guardOperands(def *ir.Instr) map[ir.Reg]bool {
	ops := map[ir.Reg]bool{}
	var uses []ir.Loc
	uses = def.AppendUses(uses)
	for _, l := range uses {
		if r, ok := l.IsGR(); ok && r != 0 {
			ops[r] = true
		}
	}
	return ops
}

// countdownBound recognizes the §3.2.1.1 countdown structure around a guard
// compare and returns the static iteration bound (and the decrement step),
// or (0, 0) when the guard is not a countdown. The structure is: the guard
// is `cmp.gt q,_ = counter, 0`; the counter is strictly decremented by a
// constant inside the body; it is initialized from a live-in buffer slot in
// the region; and every spawner outside this slice's own region stages a
// compile-time constant into that slot. The bound is the largest constant
// staged — chained respawns restage the decremented counter, so the stub's
// constant dominates the chain.
func countdownBound(f *ir.Func, blocks []*ir.Block, body []int, reachable func(int, int) bool, root string, def *ir.Instr) (int64, int64) {
	if def.Op != ir.OpCmp || def.Cond != ir.CondGT || !def.UseImm || def.Imm != 0 {
		return 0, 0
	}
	counter := def.Ra
	if counter == 0 {
		return 0, 0
	}
	// Strict constant decrement of the counter inside the body.
	var step int64
	for _, bi := range body {
		for i, in := range blocks[bi].Instrs {
			if !reachable(bi, i) {
				continue
			}
			if in.Op == ir.OpAdd && in.UseImm && in.Rd == counter && in.Ra == counter && in.Imm < 0 {
				step = -in.Imm
			}
		}
	}
	if step == 0 {
		return 0, 0
	}
	// Counter initialized from a live-in slot somewhere in the region.
	slot := int64(-1)
	for _, b := range blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpLir && in.Rd == counter {
				slot = in.Imm
			}
		}
	}
	if slot < 0 {
		return 0, 0
	}
	// Every external spawner of this slice stages a constant into the slot;
	// the largest constant bounds the countdown.
	var bound int64
	inRegion := map[string]bool{}
	for _, b := range blocks {
		inRegion[b.Label] = true
	}
	for _, b := range f.Blocks {
		if inRegion[b.Label] {
			continue // chained restage: bounded by the external constant
		}
		spawnsRoot := false
		for _, in := range b.Instrs {
			if in.Op == ir.OpSpawn && in.Target == root {
				spawnsRoot = true
			}
		}
		if !spawnsRoot {
			continue
		}
		staged := map[ir.Reg]int64{} // reg -> last constant moved into it
		hasConst := map[ir.Reg]bool{}
		found := false
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpMovI:
				staged[in.Rd] = in.Imm
				hasConst[in.Rd] = true
			case ir.OpLiw:
				if in.Imm == slot && hasConst[in.Ra] {
					if staged[in.Ra] > bound {
						bound = staged[in.Ra]
					}
					found = true
				}
			}
		}
		if !found {
			return 0, 0 // a spawner stages a non-constant: not statically bounded
		}
	}
	if bound <= 0 {
		return 0, 0
	}
	// iterations <= ceil(bound/step) <= bound; report the tight bound.
	return (bound + step - 1) / step, step
}

// dagPaths walks the backedge-free block graph from root once and returns
// the longest instruction path under the (loop-collapsed) effective weights
// ew and the number of acyclic root-to-exit paths, the "proof size" the
// certificate reports. Both saturate.
func dagPaths(n int, edges []blockEdge, ew []int64, root int, ceiling int64) (longest, paths int64) {
	succs := make([][]int, n)
	for _, e := range edges {
		if !e.back {
			succs[e.from] = append(succs[e.from], e.to)
		}
	}
	const limit = int64(1) << 30
	long, count := make([]int64, n), make([]int64, n)
	done := make([]bool, n)
	var walk func(b int)
	walk = func(b int) {
		if done[b] {
			return
		}
		done[b] = true // backedges removed: no cycles, safe to mark first
		var best, total int64
		for _, s := range succs[b] {
			walk(s)
			best = max(best, long[s])
			total = min(total+count[s], limit)
		}
		long[b], count[b] = satAdd(ew[b], best, ceiling), max(total, 1)
	}
	walk(root)
	return long[root], count[root]
}

// satAdd and satMul saturate just past the ceiling: any budget beyond it is
// equally over-budget, and saturation keeps adversarial constants from
// overflowing int64.
func satAdd(a, b, ceiling int64) int64 {
	s := a + b
	if s < a || s > ceiling+1 {
		return ceiling + 1
	}
	return s
}

func satMul(a, b, ceiling int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > (ceiling+1)/b {
		return ceiling + 1
	}
	return a * b
}
