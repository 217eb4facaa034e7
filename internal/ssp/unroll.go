package ssp

import "ssp/internal/ir"

// emitChainingUnrolled emits a chaining slice covering Options.ChainUnroll
// iterations per speculative thread: the critical sub-slice (the live-in
// advance) is applied once per step with per-step snapshots of the live-in
// values the prefetch body reads, the chained spawn passes the fully
// advanced live-ins, and the non-critical sub-slice is replicated per step
// with temporaries renamed from the program's free-register pool. This is
// the transformation the paper's hand-adapted binaries applied manually
// (§4.5); it amortizes spawn/live-in overhead and issues several iterations'
// prefetches per thread. Reports false (emitting nothing) when the free
// pool cannot cover the renaming, in which case the caller falls back to
// the unrolled-by-one Figure 5(b) form.
func (t *Tool) emitChainingUnrolled(body *ir.BlockBuilder, sl *Slice, sch *Schedule, countdown bool, countSlot int64, sliceLabel string) bool {
	steps := t.opt.ChainUnroll
	pool := t.freeRegs
	alloc := func() (ir.Reg, bool) {
		if len(pool) == 0 {
			return 0, false
		}
		r := pool[0]
		pool = pool[1:]
		return r, true
	}
	liveIn := map[ir.Reg]bool{}
	for _, r := range sl.LiveIns {
		liveIn[r] = true
	}
	// Live-in registers the non-critical body reads: these need per-step
	// snapshots taken before the step's advance.
	ncLive := map[ir.Reg]bool{}
	var uses, defs []ir.Loc
	for _, n := range sch.NonCritical {
		uses = sl.Nodes[n].In.AppendUses(uses[:0])
		for _, l := range uses {
			if r, ok := l.IsGR(); ok && liveIn[r] {
				ncLive[r] = true
			}
		}
	}
	// Dry-run capacity check: snapshots + critical temps + non-critical
	// defs, per step.
	need := len(ncLive) * steps
	for _, n := range sch.Critical {
		defs = sl.Nodes[n].In.AppendDefs(defs[:0])
		for _, l := range defs {
			if r, ok := l.IsGR(); ok && !liveIn[r] {
				need += steps
			}
		}
	}
	for _, n := range sch.NonCritical {
		defs = sl.Nodes[n].In.AppendDefs(defs[:0])
		for _, l := range defs {
			if r, ok := l.IsGR(); ok && !liveIn[r] {
				need += steps
			}
		}
	}
	if need > len(pool) {
		return false
	}

	// rename rewrites a cloned instruction's GR sources through m, then
	// gives its GR destination a fresh register, recorded in m, unless it
	// is r0 or a live-in (advanced in place). It reports false when the
	// pool runs dry.
	var reads []*ir.Reg
	rename := func(c *ir.Instr, m map[ir.Reg]ir.Reg) bool {
		reads = c.AppendGRReads(reads[:0])
		for _, r := range reads {
			if x, ok := m[*r]; ok {
				*r = x
			}
		}
		d := c.GRDest()
		if d == nil || *d == ir.RegZero || liveIn[*d] {
			return true
		}
		f, ok := alloc()
		if ok {
			m[*d] = f
			*d = f
		}
		return ok
	}
	emit := func(c *ir.Instr) {
		t.p.Assign(c)
		body.B.Append(c)
	}

	stepMaps := make([]map[ir.Reg]ir.Reg, steps)
	for k := 0; k < steps; k++ {
		m := map[ir.Reg]ir.Reg{}
		// Snapshot the pre-advance live-ins the prefetch body needs.
		for _, r := range sl.LiveIns {
			if !ncLive[r] {
				continue
			}
			s, ok := alloc()
			if !ok {
				return false
			}
			body.Mov(s, r)
			m[r] = s
		}
		// Apply the advance: temps renamed, live-in defs in place.
		for _, n := range sch.Critical {
			c := sl.Nodes[n].In.Clone()
			c.ID = 0
			// A post-increment load's base update lands on the remapped
			// base register, a source, so no extra handling is needed.
			if !rename(c, m) {
				return false
			}
			emit(c)
		}
		stepMaps[k] = m
	}

	// Chain handoff: one countdown tick per thread, fully advanced
	// live-ins.
	spawnPR := t.emitSpawnGuard(body, sl, sch, countdown)
	for i, r := range sl.LiveIns {
		body.Liw(int64(i), r)
	}
	if countdown {
		body.Liw(countSlot, scratchGR)
	}
	if spawnPR == ir.PTrue {
		body.Spawn(sliceLabel)
	} else {
		body.On(spawnPR).Spawn(sliceLabel)
	}

	// Per-step prefetch bodies.
	for k := 0; k < steps; k++ {
		m := stepMaps[k]
		for _, n := range sch.NonCritical {
			c := sl.Nodes[n].In.Clone()
			c.ID = 0
			if sch.Lfetch[n] {
				c.Op = ir.OpLfetch
				c.Rd = 0
				c.PostInc = 0
			}
			if !rename(c, m) {
				return false
			}
			emit(c)
		}
	}
	body.Kill()
	return true
}
