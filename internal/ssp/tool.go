package ssp

import (
	"fmt"
	"sort"

	"ssp/internal/cfg"
	"ssp/internal/dep"
	"ssp/internal/ir"
	"ssp/internal/profile"
)

// scratchGR and scratchPR are reserved for SSP-generated code (countdown
// counters and spawn predicates). The tool verifies the input program never
// touches them; real binaries have an ABI-reserved scratch set for the same
// purpose.
const (
	scratchGR  ir.Reg = 127
	scratchPR  ir.PR  = 63
	scratchPR2 ir.PR  = 62
)

// ScratchGR is the general register the tool reserves for SSP-generated
// code. Stubs stage the countdown bound through it on the main thread, so
// differential and metamorphic comparisons (internal/check) must exclude it
// from the original-vs-adapted register comparison.
const ScratchGR = scratchGR

// analysis bundles the per-function structures the tool consumes.
type analysis struct {
	fr *cfg.FuncRegions
	dg *dep.Graph
}

// Tool is one adaptation session over a cloned program.
type Tool struct {
	p      *ir.Program
	prof   *profile.Profile
	opt    Options
	forest *cfg.Forest
	an     map[string]*analysis
	// callCycles caches the estimated dynamic cycles per invocation of
	// each function, used as the latency of call nodes in height
	// computations (§3.2.1: latency information annotated on edges).
	callCycles map[string]float64
	// freeRegs are general registers the program never touches, usable as
	// fresh temporaries by unrolled slice bodies (the speculative context
	// is private, but reusing program registers across unroll steps would
	// create false dependences inside the slice).
	freeRegs  []ir.Reg
	report    *Report
	nextSlice int
}

// Adapt runs the post-pass tool: it clones the program, analyses it, ranks
// delinquent loads per hot region, builds one independent p-slice per region
// (the slice portfolio of Table 2), and returns the SSP-enhanced binary
// together with the Table 2 report. The original program is left untouched
// (Figure 1: the tool re-reads the first pass's IR and emits a new binary).
func Adapt(orig *ir.Program, prof *profile.Profile, opt Options, label string) (*ir.Program, *Report, error) {
	return AdaptTargets(orig, prof, opt, label, nil)
}

// RankTargets returns the delinquent-load ranking the tool itself uses when
// no explicit target set is given: loads ranked within hot regions (grouped
// by innermost loop, hottest region first, §2.2's cutoff applied per region)
// so every hot region contributes its own targets. Callers that re-rank
// outside an adaptation session — the closed-loop tuner, the experiment
// drivers — share this so their target sets match the tool's. Falls back to
// the global ranking (one region) if the program does not analyse.
func RankTargets(orig *ir.Program, prof *profile.Profile, opt Options) []int {
	fo, err := cfg.BuildForest(orig)
	if err != nil {
		return prof.DelinquentLoadsByRegion(opt.DelinquentCutoff, opt.MaxDelinquent, 0, func(int) string { return "" })
	}
	return rankTargets(orig, prof, opt, fo)
}

// rankTargets is RankTargets over an already-built forest. The region key of
// a load is its innermost loop region (the body's parent, so all loads of
// one loop share a key) or its function's proc region.
func rankTargets(p *ir.Program, prof *profile.Profile, opt Options, fo *cfg.Forest) []int {
	key := func(id int) string {
		fn, blk, in := p.InstrByID(id)
		if in == nil || fn == nil {
			return ""
		}
		fr := fo.ByFunc[fn.Name]
		if fr == nil {
			return fn.Name
		}
		r := fr.Innermost(blk.Index)
		if r == nil {
			return fn.Name
		}
		if r.Kind == cfg.RegionLoopBody && r.Parent != nil {
			r = r.Parent
		}
		return r.String()
	}
	return prof.DelinquentLoadsByRegion(opt.DelinquentCutoff, opt.MaxDelinquent, opt.MinRegionMissFrac, key)
}

// slicePlan is one slice of the portfolio between planning and emission:
// the chosen region, the targeted loads, and the built (later scheduled)
// slice. Keeping plans materialized before codegen is what lets the tool
// merge slices that share dependence chains and divide the spawn budget
// across the survivors before any code is generated.
type slicePlan struct {
	region *cfg.Region
	loads  []*ir.Instr
	slice  *Slice
	sched  *Schedule
}

// AdaptTargets is Adapt with an explicit target set: instead of ranking
// delinquent loads from the profile, the given static load IDs are targeted
// in order. A nil targets slice reproduces Adapt exactly. The closed-loop
// tuner uses this to carry targets discovered in earlier rounds across
// re-profiling runs, where covered loads look healthy in the residual
// profile and would otherwise lose their slices.
func AdaptTargets(orig *ir.Program, prof *profile.Profile, opt Options, label string, targets []int) (*ir.Program, *Report, error) {
	p := orig.Clone()
	t := &Tool{
		p:          p,
		prof:       prof,
		opt:        opt,
		an:         make(map[string]*analysis),
		callCycles: make(map[string]float64),
		report:     &Report{Benchmark: label},
	}
	if err := t.analyse(); err != nil {
		return nil, nil, err
	}
	dels := targets
	if dels == nil {
		dels = rankTargets(p, prof, opt, t.forest)
	}
	t.report.DelinquentLoads = dels

	// Select a region per delinquent load (§3.4.1) and group loads that
	// landed in the same region: each group is one planned slice.
	type choice struct {
		load   *ir.Instr
		region *cfg.Region
	}
	var choices []choice
	for _, id := range dels {
		fn, _, in := p.InstrByID(id)
		if in == nil {
			t.skip(id, "no instruction with this ID")
			continue
		}
		if in.Op != ir.OpLd {
			t.skip(id, "target is not a load")
			continue
		}
		region := t.selectRegion(fn, in)
		if region == nil {
			t.skip(id, t.anchorKey(fn, in)+": no profitable region within MaxRegionDepth")
			continue
		}
		choices = append(choices, choice{load: in, region: region})
	}
	groups := map[*cfg.Region][]*ir.Instr{}
	var regionOrder []*cfg.Region
	for _, c := range choices {
		if _, seen := groups[c.region]; !seen {
			regionOrder = append(regionOrder, c.region)
		}
		groups[c.region] = append(groups[c.region], c.load)
	}

	// Build one slice plan per region group.
	var plans []*slicePlan
	for _, r := range regionOrder {
		sl, err := t.buildSlice(r, groups[r])
		if err != nil || sl == nil {
			t.skipAll(groups[r], r.String()+": combined slice rejected (size/live-in bound or unanalyzable address)")
			continue
		}
		plans = append(plans, &slicePlan{region: r, loads: groups[r], slice: sl})
	}

	// Combine plans whose slices share dependence-graph nodes (§3.4.1:
	// "different slices are combined if they share nodes in the dependence
	// graph") — two regions chasing the same chain collapse into one slice
	// instead of prefetching the same line twice.
	plans = t.mergePlans(plans)

	// Schedule the surviving plans and divide the spawn budget across them.
	var scheduled []*slicePlan
	for _, pl := range plans {
		sch := t.schedule(pl.slice)
		if sch == nil {
			t.skipAll(pl.loads, pl.region.String()+": no profitable schedule (slack below spawn overhead)")
			continue
		}
		pl.sched = sch
		scheduled = append(scheduled, pl)
	}
	budgets := t.chainBudgets(scheduled)
	for i, pl := range scheduled {
		emitted, err := t.emit(pl.slice, pl.sched, budgets[i])
		if err != nil {
			return nil, nil, fmt.Errorf("ssp: codegen for %v: %w", pl.region, err)
		}
		if !emitted {
			t.skipAll(pl.loads, pl.region.String()+": no legal trigger placement")
		}
	}
	if err := p.Validate(); err != nil {
		return nil, nil, fmt.Errorf("ssp: adapted program invalid: %w", err)
	}
	// Speculation-safety self-certification (safety.go): the attachments
	// keep the Figure 7 layout and every slice carries a budget certificate
	// at or under the hardware ceiling.
	t.report.Safety = AnalyzeSafety(p, DefaultSafetyCeiling)
	if err := t.report.Safety.Err(); err != nil {
		return nil, nil, fmt.Errorf("ssp: self-check failed: %w", err)
	}
	return p, t.report, nil
}

// mergePlans runs the §3.4.1 slice-combining rule across the portfolio to a
// fixed point: whenever two plans' slices share a dependence-graph node, the
// tool tries to rebuild one combined slice for the union of their targets.
// The enclosing region is preferred as the host (when one region contains
// the other within a function); otherwise the larger slice's region is tried
// first, then the other. If no host yields a legal combined slice (size or
// live-in bound), both plans are kept — a failed merge is not a skip.
func (t *Tool) mergePlans(plans []*slicePlan) []*slicePlan {
	for again := true; again; {
		again = false
	pairs:
		for i := 0; i < len(plans); i++ {
			for j := i + 1; j < len(plans); j++ {
				if !sharesNodes(plans[i].slice, plans[j].slice) {
					continue
				}
				if pl := t.tryMerge(plans[i], plans[j]); pl != nil {
					plans[i] = pl
					plans = append(plans[:j], plans[j+1:]...)
					again = true
					break pairs
				}
			}
		}
	}
	return plans
}

// sharesNodes reports whether two slices contain a common instruction.
func sharesNodes(a, b *Slice) bool {
	if len(a.idx) > len(b.idx) {
		a, b = b, a
	}
	for id := range a.idx {
		if _, ok := b.idx[id]; ok {
			return true
		}
	}
	return false
}

// tryMerge attempts to rebuild one slice covering both plans' targets in the
// best candidate host region; nil means no host worked.
func (t *Tool) tryMerge(a, b *slicePlan) *slicePlan {
	union := append([]*ir.Instr{}, a.loads...)
	seen := map[int]bool{}
	for _, in := range a.loads {
		seen[in.ID] = true
	}
	for _, in := range b.loads {
		if !seen[in.ID] {
			union = append(union, in)
		}
	}
	for _, r := range mergeHosts(a, b) {
		if sl, err := t.buildSlice(r, union); err == nil && sl != nil {
			return &slicePlan{region: r, loads: union, slice: sl}
		}
	}
	return nil
}

// mergeHosts orders the candidate host regions for a merge: an enclosing
// region first, else the larger slice's region before the smaller's.
func mergeHosts(a, b *slicePlan) []*cfg.Region {
	ra, rb := a.region, b.region
	if ra == rb {
		return []*cfg.Region{ra}
	}
	if ra.F == rb.F {
		if encloses(ra, rb) {
			return []*cfg.Region{ra, rb}
		}
		if encloses(rb, ra) {
			return []*cfg.Region{rb, ra}
		}
	}
	if a.slice.Size() >= b.slice.Size() {
		return []*cfg.Region{ra, rb}
	}
	return []*cfg.Region{rb, ra}
}

// encloses reports whether outer's block set contains inner's (both regions
// of the same function).
func encloses(outer, inner *cfg.Region) bool {
	set := make(map[int]bool, len(outer.Blocks))
	for _, bi := range outer.Blocks {
		set[bi] = true
	}
	for _, bi := range inner.Blocks {
		if !set[bi] {
			return false
		}
	}
	return true
}

// chainBudgets divides Options.ChainBound across the plans that keep a
// speculative thread armed past one shot (chaining or basic-loop slices):
// with S of the paper's 4 spec contexts effectively shared by the portfolio,
// an unbounded chain from one slice would evict the others' threads, so each
// gets an equal share of the countdown budget, floored at 2. A portfolio
// with a single such slice keeps the whole bound — identical to the
// single-slice pipeline.
func (t *Tool) chainBudgets(plans []*slicePlan) []int64 {
	n := 0
	for _, pl := range plans {
		if pl.sched.Model != ModelBasicOneShot {
			n++
		}
	}
	out := make([]int64, len(plans))
	for i, pl := range plans {
		bound := t.opt.ChainBound
		if pl.sched.Model != ModelBasicOneShot && n > 1 {
			bound /= int64(n)
			if bound < 2 {
				bound = 2
			}
		}
		out[i] = bound
	}
	return out
}

// skip records one targeted load the pipeline dropped, so the report's
// covered/skipped accounting stays total over DelinquentLoads.
func (t *Tool) skip(id int, reason string) {
	t.report.Skipped = append(t.report.Skipped, SkippedLoad{ID: id, Reason: reason})
}

// skipAll records a whole region group as skipped for the same reason.
func (t *Tool) skipAll(loads []*ir.Instr, reason string) {
	for _, in := range loads {
		t.skip(in.ID, reason)
	}
}

// anchorKey names the innermost region enclosing a load — the anchor of the
// outward region search — using the same key rankTargets groups by, so even
// a rejection of the whole search names which hot region lost the load.
func (t *Tool) anchorKey(fn *ir.Func, load *ir.Instr) string {
	_, blk, _ := t.p.InstrByID(load.ID)
	an := t.an[fn.Name]
	if blk == nil || an == nil {
		return fn.Name
	}
	r := an.fr.Innermost(blk.Index)
	if r == nil {
		return fn.Name
	}
	if r.Kind == cfg.RegionLoopBody && r.Parent != nil {
		r = r.Parent
	}
	return r.String()
}

// analyse builds region forests and dependence graphs, folds profiled
// indirect-call edges into the forest, verifies the scratch registers are
// free, and precomputes per-function dynamic call costs.
func (t *Tool) analyse() error {
	fo, err := cfg.BuildForest(t.p)
	if err != nil {
		return err
	}
	t.forest = fo
	for _, f := range t.p.Funcs {
		fr := fo.ByFunc[f.Name]
		dg := dep.Build(t.p, f, fr.G, fr.Dom, fr.PDom)
		t.an[f.Name] = &analysis{fr: fr, dg: dg}
	}
	// Dynamic call graph: indirect edges observed during profiling.
	for callID, edges := range t.prof.CallEdges {
		names := make([]string, 0, len(edges))
		for name := range edges {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if edges[name] > 0 {
				fo.AddIndirectEdge(callID, name)
			}
		}
	}
	// Scratch-register check and the free-register pool for slice
	// unrolling, from one pass over every register the program touches.
	used := [ir.NumRegs]bool{}
	var locs []ir.Loc
	var clash error
	for _, f := range t.p.Funcs {
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
			locs = in.AppendDefs(in.AppendUses(locs[:0]))
			for _, l := range locs {
				if r, ok := l.IsGR(); ok {
					used[r] = true
				}
				if pr, ok := l.IsPR(); ok && (pr == scratchPR || pr == scratchPR2) {
					clash = fmt.Errorf("ssp: program uses reserved predicate %v", pr)
				}
			}
		})
	}
	if used[scratchGR] {
		return fmt.Errorf("ssp: program uses reserved register %v", scratchGR)
	}
	if clash != nil {
		return clash
	}
	used[scratchGR] = true
	for r := ir.Reg(1); r < ir.NumRegs; r++ {
		if !used[r] {
			t.freeRegs = append(t.freeRegs, r)
		}
	}
	// Per-call dynamic cost: total expected cycles of the callee's
	// instructions divided by its invocation count.
	for _, f := range t.p.Funcs {
		entries := t.prof.BlockCount(f.Name, f.Blocks[0].Label)
		if entries == 0 {
			continue
		}
		var cycles float64
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
			cycles += float64(t.prof.Freq(in)) * t.instrLatency(in)
		})
		t.callCycles[f.Name] = cycles / float64(entries)
	}
	return nil
}

// instrLatency is the machine model's latency estimate for one instruction,
// with loads priced by cache profiling (§3.2.1).
func (t *Tool) instrLatency(in *ir.Instr) float64 {
	switch in.Op {
	case ir.OpLd:
		return t.prof.ExpectedLoadLatency(in.ID)
	case ir.OpMul:
		return 3
	case ir.OpLiw, ir.OpLir:
		return 3
	case ir.OpCall, ir.OpCallB:
		// Resolved at latency-query time via callCycles; unresolved
		// indirect calls get a nominal cost.
		if in.Op == ir.OpCall {
			if c, ok := t.callCycles[in.Target]; ok {
				return 1 + c
			}
		}
		return 20
	default:
		return 1
	}
}

// latFunc adapts instrLatency to the dep package's interface.
func (t *Tool) latFunc() dep.LatencyFunc {
	return func(in *ir.Instr) float64 { return t.instrLatency(in) }
}
