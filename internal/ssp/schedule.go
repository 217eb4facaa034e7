package ssp

import (
	"math"
	"sort"

	"ssp/internal/cfg"
	"ssp/internal/ir"
)

// Model is the precomputation model selected for a slice (§3.2, §3.4.1).
type Model uint8

const (
	// ModelChaining generates the do-across prefetching loop of Figure
	// 5(b): each speculative thread runs one iteration and spawns the
	// next (§3.2.1).
	ModelChaining Model = iota
	// ModelBasicLoop generates the sequential prefetching loop of Figure
	// 6(b): a single speculative thread iterates the scheduled slice
	// (§3.2.2).
	ModelBasicLoop
	// ModelBasicOneShot generates a straight-line slice executed once per
	// trigger — used for loop-body regions whose recurrence passes
	// through memory the main thread is still writing (treeadd.df) and
	// for non-loop regions.
	ModelBasicOneShot
)

func (m Model) String() string {
	switch m {
	case ModelChaining:
		return "chaining"
	case ModelBasicLoop:
		return "basic-loop"
	case ModelBasicOneShot:
		return "basic-oneshot"
	}
	return "?"
}

// Schedule is the scheduled form of a slice plus the slack/benefit metrics
// driving region and model selection.
type Schedule struct {
	Model     Model
	Predicted bool

	// Critical and NonCritical are node indices in emission order: the
	// critical sub-slice (the backward closure of the live-ins the next
	// iteration consumes, plus the spawn condition) runs before the spawn
	// point, the rest after (§3.2.1.2).
	Critical    []int
	NonCritical []int
	// Lfetch marks target nodes to emit as prefetches: a delinquent load
	// becomes lfetch when nothing in the slice consumes its value
	// (Figure 4's load -> prefetch rewrite).
	Lfetch map[int]bool

	// Heights per §3.2.1.2.2.
	HRegion, HCritical, HSlice float64
	// RateCSP/RateBSP are the per-iteration slack growth rates of
	// slack_csp and slack_bsp; Rate is the selected model's.
	RateCSP, RateBSP, Rate float64
	// SlackGrows is false for one-shot slices (constant slack).
	SlackGrows bool

	// AvailableILP is the slice dependence graph's available parallelism
	// (total latency / critical path, §3.2.1.2.2); near 1 means the slice
	// is a serial chain, the regime where height-priority list scheduling
	// is near-optimal.
	AvailableILP float64

	// TripsPerEntry, Entries, ItersTotal characterize the region's
	// profiled iteration structure.
	TripsPerEntry, Entries, ItersTotal float64
	// ReducedFraction is reduced_misscycle / total target miss cycles —
	// compared against Options.ReducedMissCutoff (§3.4.1).
	ReducedFraction float64

	// Spawn predicate wiring when the actual latch condition is used:
	// spawn on latch-cmp's Pd1 (or Pd2 when the continue sense is the
	// complement).
	SpawnOnPd2 bool
}

// sliceHeights computes node heights over the slice graph restricted to a
// node set, following non-carried edges (§3.2.1.2.2's maximum node height
// priority). Targets converted to lfetch cost a single cycle: prefetches are
// fire-and-forget.
func (t *Tool) sliceHeights(sl *Slice, set map[int]bool, lfetch map[int]bool) map[int]float64 {
	h := make(map[int]float64, len(set))
	var visit func(int) float64
	visiting := map[int]bool{}
	// A slice that runs ahead of the main thread takes the cache misses
	// the main thread's profile attributed to a line-mate: a slice load
	// addressing the same record as a delinquent target (same function,
	// same base register) is priced at least at the target's latency, so
	// the slack estimate doesn't credit the speculative thread with the
	// main thread's warm lines.
	type baseKey struct {
		fn   string
		base ir.Reg
	}
	targetLat := map[baseKey]float64{}
	for _, n := range sl.Nodes {
		if n.Target && n.In.Op == ir.OpLd {
			k := baseKey{n.Fn, n.In.Ra}
			if l := t.prof.ExpectedLoadLatency(n.In.ID); l > targetLat[k] {
				targetLat[k] = l
			}
		}
	}
	lat := func(i int) float64 {
		if lfetch[i] {
			return 1
		}
		n := sl.Nodes[i]
		l := t.instrLatency(n.In)
		if n.In.Op == ir.OpLd {
			if tl := targetLat[baseKey{n.Fn, n.In.Ra}]; tl > l {
				l = tl
			}
		}
		return l
	}
	visit = func(i int) float64 {
		if v, ok := h[i]; ok {
			return v
		}
		if visiting[i] {
			return 0
		}
		visiting[i] = true
		best := 0.0
		for _, e := range sl.Succs[i] {
			if e.Carried || !set[e.To] || e.To == i {
				continue
			}
			if v := visit(e.To); v > best {
				best = v
			}
		}
		visiting[i] = false
		v := lat(i) + best
		h[i] = v
		return v
	}
	for i := range set {
		visit(i)
	}
	return h
}

// closureFwd returns the backward closure of seeds over non-carried slice
// edges: everything that must execute within one iteration to produce the
// seeds' values. Carried inputs are satisfied by live-in values.
func closureFwd(sl *Slice, seeds []int) map[int]bool {
	set := map[int]bool{}
	stack := append([]int(nil), seeds...)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if set[n] {
			continue
		}
		set[n] = true
		for _, e := range sl.Preds[n] {
			if !e.Carried && !set[e.From] {
				stack = append(stack, e.From)
			}
		}
	}
	return set
}

// listSchedule orders the node set by forward list scheduling with maximum
// cumulative cost (dependence height) priority; ties break toward the lower
// original instruction address (§3.2.1.2.2).
func (t *Tool) listSchedule(sl *Slice, set map[int]bool, heights map[int]float64) []int {
	nodes := make([]int, 0, len(set))
	for n := range set {
		nodes = append(nodes, n)
	}
	sort.Slice(nodes, func(i, j int) bool {
		a, b := nodes[i], nodes[j]
		if heights[a] != heights[b] {
			return heights[a] > heights[b]
		}
		return sl.Nodes[a].Order < sl.Nodes[b].Order
	})
	scheduled := map[int]bool{}
	var order []int
	for len(order) < len(nodes) {
		progress := false
		for _, n := range nodes {
			if scheduled[n] {
				continue
			}
			ready := true
			for _, e := range sl.Preds[n] {
				if !e.Carried && set[e.From] && !scheduled[e.From] && e.From != n {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			order = append(order, n)
			scheduled[n] = true
			progress = true
			break
		}
		if !progress {
			// Defensive: a residual cycle through non-carried edges
			// (possible only via imprecise cross-procedure edges) —
			// fall back to priority order for the remainder.
			for _, n := range nodes {
				if !scheduled[n] {
					order = append(order, n)
					scheduled[n] = true
				}
			}
		}
	}
	return order
}

// regionIters returns the region's profiled iteration structure: total
// header executions, entry count, and trips per entry (§3.4.1: "the trip
// counts are derived from block profiling if available").
func (t *Tool) regionIters(region *cfg.Region) (iters, entries, trips float64) {
	f := region.F
	if region.Loop == nil {
		e := float64(t.prof.BlockCount(f.Name, f.Blocks[0].Label))
		if e == 0 {
			e = 1
		}
		return e, e, 1
	}
	header := region.Loop.Header
	iters = float64(t.prof.BlockCount(f.Name, f.Blocks[header].Label))
	an := t.an[f.Name]
	for _, p := range an.fr.G.Preds[header] {
		if !region.Loop.Contains(p) {
			entries += float64(t.prof.BlockCount(f.Name, f.Blocks[p].Label))
		}
	}
	if entries == 0 {
		entries = 1
	}
	if iters == 0 {
		iters = entries
	}
	trips = iters / entries
	if trips < 1 {
		trips = 1
	}
	return iters, entries, trips
}

// schedule derives the full Schedule for a slice: dependence reduction
// (rotation, condition prediction), critical/non-critical partitioning by
// backward closure, list scheduling, slack computation, and model selection.
// It returns nil when the slice yields no usable schedule.
func (t *Tool) schedule(sl *Slice) *Schedule {
	sch := &Schedule{Lfetch: map[int]bool{}}
	all := map[int]bool{}
	for i := range sl.Nodes {
		all[i] = true
	}
	// Delinquent loads whose values nothing consumes become prefetches.
	for i, n := range sl.Nodes {
		if !n.Target {
			continue
		}
		consumed := false
		for _, e := range sl.Succs[i] {
			if e.To != i {
				consumed = true
			}
		}
		if !consumed {
			sch.Lfetch[i] = true
		}
	}

	// Region height: the main thread's per-iteration dependence height.
	region := sl.Region
	an := t.an[region.F.Name]
	var regionNodes []int
	for _, bi := range region.Blocks {
		for _, in := range region.F.Blocks[bi].Instrs {
			if n := an.dg.NodeByID(in.ID); n >= 0 {
				regionNodes = append(regionNodes, n)
			}
		}
	}
	sch.HRegion = an.dg.MaxHeight(regionNodes, t.latFunc())

	// Spawn-condition chain and prediction decision (§3.2.1.1): when the
	// chain includes a load, waiting for the actual condition would
	// serialize the chaining threads on memory, so the condition is
	// predicted and the dependences leading to it dropped.
	latchIdx := -1
	if sl.Latch != nil {
		latchIdx = sl.NodeOf(sl.Latch)
	}
	var condChain map[int]bool
	if latchIdx >= 0 {
		condChain = closureFwd(sl, []int{latchIdx})
	}
	condHasLoad := false
	for n := range condChain {
		if sl.Nodes[n].In.Op == ir.OpLd {
			condHasLoad = true
		}
	}
	canActualCond := latchIdx >= 0 && sl.LatchCmp != nil && sl.Latch.Qp != ir.PTrue
	if canActualCond {
		// Continue sense: does the latch branch jump back to the header?
		header := region.F.Blocks[region.Loop.Header].Label
		continueOnQp := sl.Latch.Target == header
		onPd1 := sl.Latch.Qp == sl.LatchCmp.Pd1
		sch.SpawnOnPd2 = continueOnQp != onPd1
	}
	sch.Predicted = (t.opt.CondPrediction && condHasLoad) || !canActualCond

	// Critical sub-slice (§3.2.1.2.1): the closure that advances the
	// live-in values the next iteration's prefetch computation actually
	// consumes — the loop-carried recurrence — plus, when the condition
	// is real, the spawn-condition chain. Live-ins that only feed a
	// predicted-away condition (e.g. a traversal bound whose compare was
	// predicted) are not advanced before the spawn: this is the
	// dependence-reduction payoff of condition prediction (§3.2.1.1).
	liveInSet := map[ir.Reg]bool{}
	for _, r := range sl.LiveIns {
		liveInSet[r] = true
	}
	var targetSeeds []int
	for i, n := range sl.Nodes {
		if n.Target {
			targetSeeds = append(targetSeeds, i)
		}
	}
	targetClosure := closureFwd(sl, targetSeeds)
	needed := map[ir.Reg]bool{}
	markConsumed := func(set map[int]bool) {
		var useLocs []ir.Loc
		for n := range set {
			// A node consumes the live-in/carried value of register r
			// when it uses r without an in-slice forward definition.
			useLocs = sl.Nodes[n].In.AppendUses(useLocs[:0])
			for _, l := range useLocs {
				r, ok := l.IsGR()
				if !ok || !liveInSet[r] {
					continue
				}
				fwdDef := false
				for _, e := range sl.Preds[n] {
					if !e.Carried && e.From != n {
						var dl []ir.Loc
						dl = sl.Nodes[e.From].In.AppendDefs(dl)
						for _, d := range dl {
							if dr, dok := d.IsGR(); dok && dr == r {
								fwdDef = true
							}
						}
					}
				}
				if !fwdDef {
					needed[r] = true
				}
			}
		}
	}
	markConsumed(targetClosure)
	if !sch.Predicted && latchIdx >= 0 {
		markConsumed(closureFwd(sl, []int{latchIdx}))
	}
	var advanceDefs []int
	var defLocs []ir.Loc
	for i, n := range sl.Nodes {
		defLocs = n.In.AppendDefs(defLocs[:0])
		for _, l := range defLocs {
			if r, ok := l.IsGR(); ok && needed[r] {
				advanceDefs = append(advanceDefs, i)
			}
		}
	}
	seeds := advanceDefs
	if !sch.Predicted && latchIdx >= 0 {
		seeds = append(append([]int(nil), seeds...), latchIdx)
	}
	critical := closureFwd(sl, seeds)
	// Drop the latch/cmp entirely when predicting, unless something else
	// needs them.
	drop := map[int]bool{}
	if sch.Predicted && latchIdx >= 0 {
		if !critical[latchIdx] {
			drop[latchIdx] = true
		}
		if sl.LatchCmp != nil {
			if ci := sl.NodeOf(sl.LatchCmp); ci >= 0 && !critical[ci] {
				needed := false
				for _, e := range sl.Succs[ci] {
					if e.To != ci && !drop[e.To] {
						needed = true
					}
				}
				if !needed {
					drop[ci] = true
				}
			}
		}
	}
	nonCritical := map[int]bool{}
	for i := range sl.Nodes {
		if !critical[i] && !drop[i] {
			nonCritical[i] = true
		}
	}
	// The latch branch itself is never emitted as a branch: it becomes
	// the spawn guard (chaining) or the backedge guard (basic loop).
	if latchIdx >= 0 {
		delete(nonCritical, latchIdx)
		delete(critical, latchIdx)
	}

	heights := t.sliceHeights(sl, all, sch.Lfetch)
	if t.opt.LoopRotation {
		sch.Critical = t.listSchedule(sl, critical, heights)
		sch.NonCritical = t.listSchedule(sl, nonCritical, heights)
	} else {
		// Ablation: no dependence reduction — original program order,
		// spawn after the whole slice (the serialized form §3.2.1.1
		// warns about).
		merged := map[int]bool{}
		for i := range critical {
			merged[i] = true
		}
		for i := range nonCritical {
			merged[i] = true
		}
		var order []int
		for i := range merged {
			order = append(order, i)
		}
		sort.Slice(order, func(a, b int) bool {
			return sl.Nodes[order[a]].Order < sl.Nodes[order[b]].Order
		})
		sch.Critical = order
		sch.NonCritical = nil
	}

	// height(critical sub-slice) is measured on the critical sub-slice's
	// own dependence graph (§3.2.1.2.2), not inherited through
	// non-critical successors.
	critHeights := t.sliceHeights(sl, critical, sch.Lfetch)
	sch.HCritical = maxOver(critHeights, critical)
	sch.HSlice = maxOver(heights, all)
	if sch.HSlice > 0 {
		var total float64
		for i := range all {
			if sch.Lfetch[i] {
				total++
				continue
			}
			total += t.instrLatency(sl.Nodes[i].In)
		}
		sch.AvailableILP = total / sch.HSlice
	}
	libCost := 3.0 * float64(len(sl.LiveIns))
	sch.RateCSP = sch.HRegion - sch.HCritical - t.opt.SpawnOverhead - libCost
	sch.RateBSP = sch.HRegion - sch.HSlice

	iters, entries, trips := t.regionIters(region)
	sch.ItersTotal, sch.Entries, sch.TripsPerEntry = iters, entries, trips

	// Model selection (§3.4.1): basic when the region is not a usable
	// loop, when the recurrence passes through main-thread-written
	// memory, when the trip count is small, or when basic slack beats
	// chaining slack; chaining otherwise.
	switch {
	case region.Loop == nil || sl.MemRecurrence:
		sch.Model = ModelBasicOneShot
	case !t.opt.Chaining || trips < 4 || sch.RateBSP >= sch.RateCSP:
		sch.Model = ModelBasicLoop
	default:
		sch.Model = ModelChaining
	}
	switch sch.Model {
	case ModelChaining:
		sch.Rate, sch.SlackGrows = sch.RateCSP, true
	case ModelBasicLoop:
		sch.Rate, sch.SlackGrows = sch.RateBSP, true
	case ModelBasicOneShot:
		sch.Rate, sch.SlackGrows = sch.HRegion-sch.HSlice, false
	}

	// reduced_misscycle = Σ_i min(miss_cycle_per_iteration, slack(i))
	// summed over entries (§3.4.1).
	var missTotal float64
	for _, tg := range sl.Targets {
		if s := t.prof.Loads[tg.ID]; s != nil {
			missTotal += float64(s.MissCycles)
		}
	}
	if missTotal > 0 && iters > 0 {
		missPerIter := missTotal / iters
		perEntry := reducedPerEntry(sch.Rate, missPerIter, trips, sch.SlackGrows, t.opt.SlackMax)
		sch.ReducedFraction = entries * perEntry / missTotal
		if sch.ReducedFraction > 1 {
			sch.ReducedFraction = 1
		}
	}
	return sch
}

func maxOver(h map[int]float64, set map[int]bool) float64 {
	best := 0.0
	for n := range set {
		if h[n] > best {
			best = h[n]
		}
	}
	return best
}

// reducedPerEntry evaluates Σ_{i=1..trips} min(missPerIter, slack(i)) in
// closed form, where slack(i) = rate*i for growing slack (capped at
// slackMax) or the constant rate for one-shot slices.
func reducedPerEntry(rate, missPerIter, trips float64, grows bool, slackMax float64) float64 {
	if rate <= 0 || missPerIter <= 0 || trips <= 0 {
		return 0
	}
	if !grows {
		return trips * math.Min(missPerIter, rate)
	}
	cap := math.Min(missPerIter, slackMax)
	iStar := cap / rate
	if trips <= iStar {
		return rate * trips * (trips + 1) / 2
	}
	return rate*iStar*(iStar+1)/2 + cap*(trips-iStar)
}

// selectRegion walks the region graph outward from the delinquent load's
// innermost region — loop body to loop to outer scopes to dominant callers —
// and returns the first region whose reduced miss cycles clear the cutoff,
// or the best-scoring region seen (§3.4.1). Ties prefer the inner region by
// construction of the walk order. Returns nil when no region yields a
// usable slice.
func (t *Tool) selectRegion(fn *ir.Func, load *ir.Instr) *cfg.Region {
	_, blk, _ := t.p.InstrByID(load.ID)
	if blk == nil {
		return nil
	}
	r := t.an[fn.Name].fr.Innermost(blk.Index)
	var best, firstValid *cfg.Region
	bestFrac := 0.0
	for depth := 0; r != nil && depth <= t.opt.MaxRegionDepth; {
		if r.Kind == cfg.RegionLoop || r.Kind == cfg.RegionProc {
			depth++
			sl, _ := t.buildSlice(r, []*ir.Instr{load})
			if sl != nil {
				if firstValid == nil {
					firstValid = r
				}
				sch := t.schedule(sl)
				if sch != nil && sch.ReducedFraction > 0 {
					if sch.ReducedFraction >= t.opt.ReducedMissCutoff {
						return r
					}
					if sch.ReducedFraction > bestFrac {
						best, bestFrac = r, sch.ReducedFraction
					}
					// Prune once projected slack is already excessive:
					// growing the region further only risks early
					// eviction (§3.1.1).
					if sch.SlackGrows && sch.Rate*sch.TripsPerEntry > t.opt.SlackMax {
						break
					}
				}
			}
		}
		if r.Parent != nil {
			r = r.Parent
			continue
		}
		// Crossed the procedure boundary: continue at the dominant
		// caller's region (§3.1's call-stack contexts).
		site := t.forest.DominantCaller(r.F.Name, t.prof.InstrFreq)
		if site == nil {
			break
		}
		r = site.Region
	}
	if best == nil {
		// "If none of the regions reduce the miss cycles beyond the
		// threshold percentage, we pick the region with the largest
		// percentage" (§3.4.1) — and when every estimate rounds to zero,
		// the innermost region that produced a legal slice.
		best = firstValid
	}
	return best
}
