package sim

import (
	"math/bits"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
)

// runInOrder is the 12-stage in-order SMT pipeline: per-thread program-order
// issue gated by a register scoreboard (an instruction stalls when it uses
// the destination of an outstanding load — the Itanium use-stall the paper
// exploits, §4.3), shared function units, and shared issue bandwidth of two
// bundles per cycle from at most two threads.
func (m *Machine) runInOrder() {
	main := m.main()
	var sel [2]*Thread
	// The configuration is immutable for the whole run; hoisting the hot
	// fields out of the cycle loop keeps the per-cycle fixed cost — which
	// every issued instruction amortizes — down to real work.
	maxCycles := m.Cfg.MaxCycles
	fastForward := m.Cfg.FastForward
	for !m.mainDone {
		if m.now >= maxCycles {
			m.res.TimedOut = true
			return
		}
		if m.now&63 == 0 && m.stop.Load() {
			// Cancelled via RunContext: bail between cycles (polled every
			// 64 cycles — one atomic load amortized over the window), so a
			// cancelled run overshoots by at most 64 cycles plus the jump
			// target of an in-progress fast-forward hop.
			return
		}
		m.now++
		fus := m.units

		// Thread selection: the remaining bundle goes round-robin to the
		// speculative threads that are not front-stalled.
		var eligible uint64
		for live := m.specMask &^ 1; live != 0; live &= live - 1 {
			if i := bits.TrailingZeros64(live); m.threads[i].frontStallUntil <= m.now {
				eligible |= 1 << i
			}
		}
		n, slots := m.selectThreads(&sel, eligible)

		issuedMain := 0
		issuedAny := false
		stallLevel := mem.Level(0)
		stalledOnLoad := false
		for _, t := range sel[:n] {
			if t.waiting(m.now) {
				// Still blocked where the scoreboard last stopped the
				// thread; issueInOrder would return this answer without
				// issuing. (A thread that blocked since issued nothing,
				// so it is still active and not front-stalled. The
				// structural check that precedes the scoreboard cannot
				// change the answer either: main, the only thread whose
				// level is read, is issued first, with every unit free.)
				if lvl, onLoad := t.wakeLoad(); onLoad && t == main {
					stalledOnLoad, stallLevel = true, lvl
				}
				continue
			}
			for s := 0; s < slots; {
				k, cont, lvl, onLoad := m.issueInOrder(t, slots-s, &fus)
				s += k
				if k > 0 {
					issuedAny = true
				}
				if t == main {
					issuedMain += k
					if onLoad {
						stalledOnLoad, stallLevel = true, lvl
					}
				}
				if !cont || m.mainDone {
					break
				}
			}
			if m.mainDone {
				break
			}
		}
		// The Figure 10 accounting, with the dominant case inline: a cycle
		// that issued main instructions with no outstanding fill is pure
		// execution.
		if issuedMain > 0 && len(main.pending) == 0 {
			m.res.Breakdown[CatExec]++
			m.res.SpecActiveHist[m.liveSpec]++
		} else {
			m.accountCycles(main, issuedMain, stalledOnLoad, stallLevel, 1)
		}
		if m.cycle != nil {
			m.cycle.Cycle(m)
		}
		if fastForward && !issuedAny && !m.mainDone {
			m.fastForwardInOrder(main, stalledOnLoad, stallLevel)
		}
	}
}

// accountCycles credits k consecutive identical cycles to the Figure 10
// breakdown and the utilization histogram in one step — the bulk form behind
// both per-cycle accounting (k=1) and fast-forward stall crediting. The
// fast-forward core guarantees the classification is constant over the k
// cycles: it never jumps across a completion of one of main's pending fills,
// so the deepest outstanding level cannot change mid-span, and no thread
// starts or ends during a jump. Every cycle lands in exactly one category
// and one bucket, so each sums to Cycles (asserted by check.Conservation).
func (m *Machine) accountCycles(main *Thread, issuedMain int, stalledOnLoad bool, stallLevel mem.Level, k int64) {
	var cat Category
	switch {
	case issuedMain > 0:
		if _, any := main.deepestOutstanding(m.now); any {
			cat = CatCacheExec
		} else {
			cat = CatExec
		}
	case stalledOnLoad:
		cat = missCategory(stallLevel)
	case main.frontStallUntil > m.now:
		cat = CatOther
	default:
		if lvl, any := main.deepestOutstanding(m.now); any {
			cat = missCategory(lvl)
		} else {
			cat = CatOther
		}
	}
	m.res.Breakdown[cat] += k
	m.res.SpecActiveHist[m.liveSpec] += k
}

// missCategory maps the level that satisfies an outstanding load to the
// paper's stall category: a load satisfied from memory is an L3 miss, from
// L3 an L2 miss, from L2 an L1 miss.
func missCategory(lvl mem.Level) Category {
	switch lvl {
	case mem.Mem:
		return CatL3
	case mem.L3:
		return CatL2
	default:
		return CatL1
	}
}

// issueInOrder issues up to budget instructions from t in program order. It
// reports how many issued, whether the thread may continue issuing this
// cycle, and — when blocked — whether the block is a scoreboard stall on an
// outstanding load and at which level. A scoreboard block fills the
// thread's wake cache, which the cycle loop and the fast-forward probe read
// instead of calling again while it holds.
//
// Consecutive pure instructions — those with a compiled step: no memory
// access, no control transfer, no halt or kill, next PC always pc+1 — issue
// as one batch without returning to the cycle loop, each one still through
// the structural-hazard check, the scoreboard, the accounting, the
// speculative budget and the scoreboard writeback. A memory or control
// instruction goes through execArch and issueEffect and ends the call: it
// may redirect fetch, stall the front end, or end the thread.
func (m *Machine) issueInOrder(t *Thread, budget int, fus *fuBudget) (k int, cont bool, lvl mem.Level, onLoad bool) {
	if !t.active || t.frontStallUntil > m.now {
		return 0, false, 0, false
	}
	pc, now := t.pc, m.now
	code, steps := m.code, m.steps
	// Per-instruction bookkeeping — the exec hook and the speculative budget
	// check — is only needed for speculative threads or when an external
	// oracle is attached; on the plain main-thread path the batch's counters
	// are settled once at its end instead (nothing observes them mid-batch:
	// pure steps reach no hook, no memory system, and no kill/halt).
	perInstr := t.spec || m.exec != nil
	for {
		d := &code[pc]
		// Structural hazard: required unit busy (liw/lir occupy a memory
		// port too).
		u := &fus[d.FU]
		if *u == 0 {
			break
		}
		// Scoreboard: all sources ready.
		if e := t.sb.stall(d, now); e != nil {
			t.block(pc, e)
			lvl, onLoad = t.wakeLoad()
			break
		}
		*u--
		s := steps[pc]
		if s == nil {
			t.pc = pc
			if !perInstr {
				t.instrs += int64(k)
				m.res.MainInstrs += int64(k)
			}
			return k + 1, m.issueEffect(t, pc, d), 0, false
		}
		if perInstr {
			if m.exec != nil {
				m.exec.Exec(m, t, pc)
			}
			s(&t.Ctx)
			k++
			if m.countInstr(t) {
				t.pc = pc + 1
				m.killThread(t)
				return k, false, 0, false
			}
		} else {
			s(&t.Ctx)
			k++
		}
		lat := m.lat[d.Lat]
		for _, loc := range d.Defs[:d.ND] {
			t.sb.set(loc, sbEntry{ready: now + lat})
		}
		pc++
		if k == budget {
			cont = true
			break
		}
	}
	t.pc = pc
	if !perInstr {
		t.instrs += int64(k)
		m.res.MainInstrs += int64(k)
	}
	return k, cont, lvl, onLoad
}

// issueEffect executes the memory or control instruction d at pc, whose
// hazards issueInOrder has cleared and whose unit it has taken, and applies
// its timing: the memory access, branch prediction, the chk.c flush, and
// kill or halt. It reports whether the thread may keep issuing this cycle.
func (m *Machine) issueEffect(t *Thread, pc int, d *decode.Decoded) bool {
	ef := m.execArch(t, pc)
	if m.countInstr(t) {
		ef.kill = true
	}

	// Default completion time for defined locations.
	lat := m.lat[d.Lat]
	for _, loc := range d.Defs[:d.ND] {
		t.sb.set(loc, sbEntry{ready: m.now + lat})
	}
	if !ef.nullified {
		switch ef.memKind {
		case memLoad:
			acc := m.Hier.Access(ef.memID, ef.memAddr, m.now)
			e := t.sb.slot[ef.loadDest]
			e.ready = m.now + acc.Latency
			if acc.Level != mem.L1 {
				e.loadLevel = uint8(acc.Level) + 1
				t.addFill(m.now+acc.Latency, acc.Level)
			}
			t.sb.set(ef.loadDest, e)
		case memStore:
			m.Hier.Access(ef.memID, ef.memAddr, m.now)
		case memPrefetch:
			m.Hier.Prefetch(ef.memID, ef.memAddr, m.now)
		}
	}
	if ef.brCond {
		if m.Pred.PredictAndTrain(uint64(pc), ef.brTaken && !ef.nullified) {
			t.frontStallUntil = m.now + m.Cfg.MispredictPenalty
			m.res.Mispredicts++
		}
	}
	if d.Op == ir.OpChk && ef.nextPC != pc+1 {
		// The lightweight exception flushes the pipeline (§4.4.1).
		t.frontStallUntil = m.now + m.Cfg.SpawnFlushPenalty
	}
	if ef.kill {
		m.killThread(t)
		if !t.spec {
			// thread_kill_self on the non-speculative thread: without this
			// the loop would spin until the watchdog, since nothing else
			// sets mainDone. Flag it so Result.Err can surface the error.
			m.res.MainKilled = true
			m.mainDone = true
		}
		return false
	}
	if ef.halt {
		m.mainDone = true
		return false
	}
	t.pc = ef.nextPC
	return ef.nextPC == pc+1
}
