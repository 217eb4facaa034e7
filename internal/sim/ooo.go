package sim

import (
	"math/bits"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
)

// notIssued is the doneAt of a record that has not issued yet: later than
// every cycle, so "doneAt <= now" is the whole retirement test.
const notIssued = int64(1<<63 - 1)

// A record's wake word packs its wakeup state into one int64: the number of
// its producers that have not issued yet, times pendingUnit, plus the cycle
// by which its issued producers' results are all available (the latest of
// their doneAts). Producers push both parts when they issue, so neither is
// ever recomputed, and a record is issuable exactly when its wake word is
// <= now: a pending producer puts the word past every reachable cycle.
const (
	pendingUnit = int64(1) << 56
	readyMask   = pendingUnit - 1
)

// wrec is one in-flight instruction in an OOO window. Records live inside the
// window's ring buffer and refer to each other by absolute dispatch position
// rather than by pointer, so dispatching allocates nothing.
type wrec struct {
	lat    int64
	doneAt int64
	// cons heads the list of consumer source slots waiting for this record
	// to issue (see window.links).
	cons int64

	memAddr uint64
	memID   int
	memKind uint8
	fu      decode.FUClass
}

// window is a per-thread reorder buffer: dispatch appends, issue picks
// data-ready records from the reservation station, retirement pops from the
// head in order.
//
// Records are stored in a fixed power-of-two ring indexed by absolute
// dispatch position: positions [headAbs, tailAbs) are live, and position a
// lives at recs[a&mask], its wake word at wake[a&mask]. A rename reference
// below headAbs points at a retired record — retirement requires doneAt <=
// now, so a retired producer is always satisfied and the reference needs no
// storage to prove it.
//
// The reservation station is the oldest min(rsCap, unissued) unissued
// records — the only wakeup candidates. They are exactly the unissued
// positions below rsFront: every position at or past rsFront is unissued
// and outside the station. A record joins the station at dispatch when
// there is room, otherwise when an issue frees a slot and rsFront moves
// past it. Each station entry whose producers have all issued sits in one
// of two sets: issuable, a bitmap over ring slots of the entries whose
// ready cycle has come, or future, the entries still waiting for it.
// Selection walks the issuable bitmap in age order and never visits a
// record that cannot issue.
type window struct {
	recs    []wrec
	wake    []int64
	mask    int64
	headAbs int64
	tailAbs int64
	cap     int

	// links holds decode.MaxUses source slots per ring slot. A link names
	// source slot s of the record at absolute position a as
	// a*MaxUses + s + 1 (0 ends a list); links[(link-1)&linkMask] is the
	// next link on the same producer's consumer list. Predecode bounds
	// every instruction's reads by MaxUses, so the slots never overflow.
	links    []int64
	linkMask uint64

	rsCap   int
	rsN     int // unissued records in the station
	rsFront int64
	// issuable has bit a&mask set for each station entry at position a
	// that can issue: all its producers have issued and its ready cycle
	// has come. nIssuable counts the bits.
	issuable  []uint64
	nIssuable int
	// future holds the station entries whose producers have all issued but
	// whose ready cycle was still ahead when they were filed, and
	// futureMin the earliest of those ready cycles (ffNoEvent when empty).
	// Until futureMin nothing new becomes issuable, so a select pass with
	// no issuable entry returns at once.
	future    []int64
	futureMin int64

	rename [ir.NumLocs]int64
	// blocked is a mispredicted branch (by absolute position, -1 = none)
	// that stalls dispatch until it issues; the misprediction penalty is
	// charged when it resolves.
	blocked int64
	// haltAfterDrain stops dispatch and ends the thread once every
	// dispatched instruction has issued and retired. Both halt and kill
	// use it: a speculative thread's context is only freed when its
	// in-flight work (its prefetches!) has left the pipe, matching
	// retirement-stage thread termination.
	haltAfterDrain bool
	// waitDrain blocks dispatch until the window empties: a taken chk.c
	// raises its exception at the retirement stage, squashing younger
	// in-flight work — "speculative threads can only be spawned at the
	// retirement stage of the pipeline ... assessed with similar penalty
	// to exception handling that incurs pipeline flushes" (§4.4.1). The
	// drain is what makes SSP far less profitable on the OOO model.
	waitDrain bool
}

// reset returns w restored to an empty window with robSize records and an
// rsSize-entry reservation station, reusing its arrays when they are large
// enough and allocating them (also on a nil receiver) when they are not.
// Threads keep their window across kill/start cycles, so steady-state
// spawning reuses the same arrays.
func (w *window) reset(robSize, rsSize int) *window {
	ringCap := 1
	for ringCap < robSize {
		ringCap <<= 1
	}
	if w == nil || len(w.recs) < ringCap {
		w = &window{
			recs:     make([]wrec, ringCap),
			wake:     make([]int64, ringCap),
			links:    make([]int64, ringCap*decode.MaxUses),
			issuable: make([]uint64, (ringCap+63)/64),
		}
	}
	if cap(w.future) < rsSize {
		w.future = make([]int64, 0, rsSize)
	}
	w.mask = int64(len(w.recs) - 1)
	w.linkMask = uint64(len(w.links) - 1)
	w.cap = robSize
	w.headAbs, w.tailAbs = 0, 0
	w.rsCap, w.rsN, w.rsFront = rsSize, 0, 0
	clear(w.issuable)
	w.nIssuable = 0
	w.future, w.futureMin = w.future[:0], ffNoEvent
	w.blocked = -1
	w.haltAfterDrain, w.waitDrain = false, false
	for i := range w.rename {
		w.rename[i] = -1
	}
	return w
}

func (w *window) size() int  { return int(w.tailAbs - w.headAbs) }
func (w *window) full() bool { return w.tailAbs-w.headAbs >= int64(w.cap) }

// at returns the record at absolute position a, which must be in
// [headAbs, tailAbs).
func (w *window) at(a int64) *wrec { return &w.recs[a&w.mask] }

// enter claims the ring slot at tailAbs for an instruction decoded as d and
// renames it. Each source whose live producer has not issued links a source
// slot into that producer's consumer list and counts as pending; an issued
// producer contributes its doneAt to the ready cycle. The record joins the
// reservation station when it has room. The caller has checked !full().
func (w *window) enter(d *decode.Decoded, lat, now int64) *wrec {
	a := w.tailAbs
	r := &w.recs[a&w.mask]
	r.lat, r.doneAt, r.cons, r.memKind, r.fu = lat, notIssued, 0, memNone, d.FU
	var ready, slot int64
	for _, loc := range d.Uses[:d.NU] {
		pa := w.rename[loc]
		if pa < w.headAbs {
			continue
		}
		p := &w.recs[pa&w.mask]
		if p.doneAt == notIssued {
			link := a*decode.MaxUses + slot + 1
			w.links[uint64(link-1)&w.linkMask] = p.cons
			p.cons = link
			slot++
		} else {
			ready = max(ready, p.doneAt)
		}
	}
	w.wake[a&w.mask] = slot*pendingUnit + ready
	for _, loc := range d.Defs[:d.ND] {
		w.rename[loc] = a
	}
	w.tailAbs = a + 1
	if w.rsN < w.rsCap {
		// Room in the station means every unissued record is in it, so a
		// is the next position in age order.
		w.rsFront = a + 1
		w.rsN++
		if slot == 0 {
			w.file(a, now)
		}
	}
	return r
}

// file places station entry a, whose producers have all issued, in the
// issuable set if its ready cycle has come and in future otherwise.
func (w *window) file(a, now int64) {
	if at := w.wake[a&w.mask]; at > now {
		w.future = append(w.future, a)
		w.futureMin = min(w.futureMin, at)
		return
	}
	w.setIssuable(a)
}

func (w *window) setIssuable(a int64) {
	i := a & w.mask
	w.issuable[i>>6] |= 1 << uint(i&63)
	w.nIssuable++
}

// promote moves every future entry whose ready cycle has come into the
// issuable set.
func (w *window) promote(now int64) {
	kept, next := w.future[:0], ffNoEvent
	for _, a := range w.future {
		if at := w.wake[a&w.mask]; at > now {
			kept = append(kept, a)
			next = min(next, at)
		} else {
			w.setIssuable(a)
		}
	}
	w.future, w.futureMin = kept, next
}

// fuBudget is a cycle's remaining function units, indexed by class. FUNone
// instructions occupy no unit: their budget is the issue width, which no
// cycle's slots can exhaust.
type fuBudget [decode.NumFUClasses]int

// runOOO is the 16-stage out-of-order model: per-thread 255-entry windows
// with register renaming, an 18-entry reservation station (the oldest 18
// unissued records, the only wakeup candidates, woken by their producers at
// issue), in-order retirement, resolve-time branch-misprediction charging,
// and dispatch serialization at chk.c (spawning happens at the retirement
// end of the pipe and is assessed an exception-style flush, §4.4.1).
func (m *Machine) runOOO() {
	main := m.main()
	main.win = main.win.reset(m.Cfg.ROBSize, m.Cfg.RSSize)
	var sel [2]*Thread

	for !m.mainDone {
		if m.now >= m.Cfg.MaxCycles {
			m.res.TimedOut = true
			return
		}
		if m.stop.Load() {
			// Cancelled via RunContext: bail between cycles.
			return
		}
		m.now++

		// Retire, over main (context 0) and the active speculative
		// contexts; a drained speculative thread that executed kill frees
		// its context here (retirement-stage termination).
		retired := false
		for live := m.specMask | 1; live != 0; live &= live - 1 {
			t := m.threads[bits.TrailingZeros64(live)]
			w := t.win
			for k := 0; k < m.Cfg.RetireWidth && w.headAbs < w.tailAbs; k++ {
				if w.at(w.headAbs).doneAt > m.now {
					break
				}
				w.headAbs++
				retired = true
			}
			if w.haltAfterDrain && w.size() == 0 && t.spec {
				m.killThread(t)
			}
		}

		// Select threads (main first) for issue and dispatch bandwidth.
		n, slots := m.selectThreads(&sel, m.specMask&^1)

		// Issue (wakeup/select).
		fus := m.units
		issuedMain, issuedTotal := 0, 0
		for _, t := range sel[:n] {
			issued := m.issueOOO(t, slots, &fus)
			issuedTotal += issued
			if t == main {
				issuedMain = issued
			}
		}

		// Dispatch (decode/rename + architectural execution).
		dispatched := 0
		for _, t := range sel[:n] {
			dispatched += m.dispatchOOO(t, slots)
		}

		// Main-thread completion: halt dispatched and window drained.
		if main.win.haltAfterDrain && main.win.size() == 0 {
			m.mainDone = true
		}
		m.accountCycles(main, issuedMain, false, 0, 1)
		if m.cycle != nil {
			m.cycle.Cycle(m)
		}
		if m.Cfg.FastForward && !retired && issuedTotal == 0 && dispatched == 0 && !m.mainDone {
			m.fastForwardOOO(main)
		}
	}
}

// issueOOO issues up to slots data-ready records from the reservation
// station, oldest first. A ready record whose function unit is used up this
// cycle is passed over and stays issuable. Each issue frees a station slot,
// which the oldest record outside the station then takes.
func (m *Machine) issueOOO(t *Thread, slots int, fus *fuBudget) int {
	if !t.active || t.win == nil || slots <= 0 {
		return 0
	}
	w := t.win
	now := m.now
	if now >= w.futureMin {
		w.promote(now)
	}
	if w.nIssuable == 0 {
		return 0
	}
	// Ring order from the head is age order. The walk covers the head's
	// word from the head's bit up, every other word, then the head's word
	// below the head's bit, and stops once every issuable entry is seen.
	start := int(w.headAbs & w.mask)
	nw := len(w.issuable)
	issued, left := 0, w.nIssuable
	for k := 0; k <= nw && issued < slots && left > 0; k++ {
		wi := start>>6 + k
		if wi >= nw {
			wi -= nw
		}
		word := w.issuable[wi]
		switch k {
		case 0:
			word &= ^uint64(0) << uint(start&63)
		case nw:
			word &= 1<<uint(start&63) - 1
		}
		for ; word != 0 && issued < slots; word &= word - 1 {
			left--
			i := wi<<6 | bits.TrailingZeros64(word)
			r := &w.recs[i]
			if u := &fus[r.fu]; *u > 0 {
				*u--
				w.issuable[wi] &^= 1 << uint(i&63)
				w.nIssuable--
				w.rsN--
				m.issueRec(t, w, r, w.headAbs+int64(i-start)&w.mask)
				issued++
			}
		}
	}
	for w.rsN < w.rsCap && w.rsFront < w.tailAbs {
		a := w.rsFront
		w.rsFront++
		w.rsN++
		if w.wake[a&w.mask] < pendingUnit {
			w.file(a, now)
		}
	}
	return issued
}

// issueRec issues record r at absolute position a: it performs the memory
// access, fixes doneAt, pushes doneAt to every consumer waiting on r (filing
// each station entry whose last producer this was), and resolves a blocking
// mispredicted branch.
func (m *Machine) issueRec(t *Thread, w *window, r *wrec, a int64) {
	switch r.memKind {
	case memLoad:
		acc := m.Hier.Access(r.memID, r.memAddr, m.now)
		r.doneAt = m.now + acc.Latency
		if acc.Level != mem.L1 {
			t.addFill(r.doneAt, acc.Level)
		}
	case memStore:
		m.Hier.Access(r.memID, r.memAddr, m.now)
		r.doneAt = m.now + 1
	case memPrefetch:
		m.Hier.Prefetch(r.memID, r.memAddr, m.now)
		r.doneAt = m.now + 1
	default:
		r.doneAt = m.now + r.lat
	}
	for l := r.cons; l != 0; {
		k := uint64(l-1) & w.linkMask
		c := &w.wake[k/decode.MaxUses]
		v := *c - pendingUnit
		*c = v&^readyMask | max(v&readyMask, r.doneAt)
		if *c < pendingUnit {
			// Last producer: a consumer in the station becomes a wakeup
			// candidate; one outside is filed when it enters.
			if ca := (l - 1) / decode.MaxUses; ca < w.rsFront {
				w.file(ca, m.now)
			}
		}
		l = w.links[k]
	}
	if w.blocked == a {
		// Mispredicted branch resolves: refetch after the flush.
		w.blocked = -1
		t.frontStallUntil = r.doneAt + m.Cfg.MispredictPenalty
	}
}

// dispatchOOO decodes, renames, and architecturally executes up to slots
// instructions in program order, returning how many it dispatched.
func (m *Machine) dispatchOOO(t *Thread, slots int) int {
	if !t.active || t.win == nil {
		return 0
	}
	w := t.win
	if t.frontStallUntil > m.now || w.blocked >= 0 || w.haltAfterDrain {
		return 0
	}
	if w.waitDrain {
		if w.size() > 0 {
			return 0
		}
		w.waitDrain = false
	}
	// Within the bundle only the instructions that end it (below) change
	// the conditions above, so the window's free room is the one bound left.
	n := min(slots, w.cap-w.size())
	for k := 0; k < n; k++ {
		pc := t.pc
		d := &m.code[pc]
		ef := m.execArch(t, pc)
		kill := m.countInstr(t)

		// Claim the ring slot at the next absolute position; n above
		// guarantees it is free.
		a := w.tailAbs
		r := w.enter(d, m.lat[d.Lat], m.now)
		next := pc + 1
		if ef != nil {
			if !ef.nullified && ef.memKind != memNone {
				r.memKind, r.memAddr, r.memID = ef.memKind, ef.memAddr, ef.memID
			}
			if ef.brCond {
				if m.Pred.PredictAndTrain(uint64(pc), ef.brTaken && !ef.nullified) {
					m.res.Mispredicts++
					w.blocked = a
				}
			}
			if d.Op == ir.OpChk && ef.nextPC != pc+1 {
				// Taken chk.c: the exception is recognized at retirement,
				// so the stub cannot dispatch until everything older has
				// left the pipe, and the refetch pays the flush penalty.
				w.waitDrain = true
				t.frontStallUntil = m.now + m.Cfg.SpawnFlushPenalty
			}
			if ef.kill && !t.spec {
				// thread_kill_self on the non-speculative thread. Drain and
				// end the run like a halt (so the in-order and OOO models
				// agree on when it stops), but flag the violation so
				// Result.Err reports it instead of silently succeeding.
				m.res.MainKilled = true
			}
			kill = kill || ef.kill || ef.halt
			next = ef.nextPC
		}
		if kill {
			w.haltAfterDrain = true
			return k + 1
		}
		t.pc = next
		if next != pc+1 || w.blocked >= 0 {
			return k + 1 // a control transfer or a mispredict ends the bundle
		}
	}
	return n
}
