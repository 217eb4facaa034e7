package sim

import (
	"math/bits"

	"ssp/internal/sim/mem"
)

// The stall-aware fast-forward timing core. The paper's machines spend
// 80-90% of their cycles stalled on memory (Figure 10); simulating each of
// those cycles individually is wasted work, because a fully stalled machine
// changes no state at all — the only thing that moves is the cycle counter.
// When an engine finishes a cycle in which nothing issued, dispatched, or
// retired anywhere, it proves the machine is fully stalled (every active
// thread is blocked on a known future cycle, not on a structural or
// selection artifact that the next cycle could resolve), computes the
// earliest cycle at which anything can change, and jumps the clock there in
// one step. The skipped cycles are credited to the breakdown and
// utilization accounting in bulk (accountCycles), and the round-robin
// selection cursor is advanced exactly as the skipped selection
// passes would have advanced it, so a fast-forwarded run is bit-for-bit
// identical to a per-cycle run (check.StrategyEquivalence).
//
// The event set a jump respects:
//
//   - every active thread's front-end stall expiry (frontStallUntil);
//   - in-order: the ready cycle of the first unready source of the
//     instruction each thread is blocked on (the scoreboard stall, read
//     from the thread's wake cache when the issue path just filled it);
//   - OOO: the completion (doneAt) of the ROB head, since retirement is in
//     order and retirement alone drives full-window drain, waitDrain drain,
//     and thread termination; and the ready cycle of every
//     reservation-station entry whose producers have all issued, since only
//     an issue wakes a consumer, resolves a blocked branch, or changes the
//     station. An entry still waiting on an unissued producer needs no
//     event: that producer is older, so it is in the station too;
//   - the completion of any of the main thread's pending cache fills,
//     because the Figure 10 category of a stalled cycle depends on the
//     deepest *outstanding* fill (a jump across a fill completion could
//     credit cycles to the wrong miss level);
//   - the memory system's earliest in-flight fill-buffer completion
//     (mem.Hierarchy.EarliestPending) — currently redundant with the
//     per-thread events because the hierarchy drains lazily, but it keeps
//     the core correct if the memory system ever grows eager behavior.

const ffNoEvent = int64(1) << 62

// selectThreads is the SMT front end both engines share. Table 1's machines
// fetch and issue two bundles per cycle from at most two threads: the main
// thread alone gets the whole issue width, and with a speculative thread
// beside it each gets one bundle. It fills sel with main, then the
// speculative thread if any, and returns how many it selected and each one's
// issue slots. The speculative thread is the first context set in eligible
// (bit i = threads[i] may be picked this cycle; never main) at or after the
// round-robin cursor, wrapping past the last context, and the cursor moves
// one past it.
func (m *Machine) selectThreads(sel *[2]*Thread, eligible uint64) (n, slots int) {
	sel[0] = m.threads[0]
	if eligible == 0 {
		return 1, m.Cfg.IssueWidth
	}
	i := bits.TrailingZeros64(eligible >> uint(m.rr) << uint(m.rr))
	if i == 64 {
		i = bits.TrailingZeros64(eligible)
	}
	m.rr = m.pastPick(i)
	sel[1] = m.threads[i]
	return 2, m.Cfg.IssueWidth / 2
}

// pastPick is the round-robin cursor one past picked context i.
func (m *Machine) pastPick(i int) int {
	if i++; i == len(m.threads) {
		return 0
	}
	return i
}

// fastForwardInOrder attempts a stall jump on the in-order model after a
// cycle in which no thread issued. It verifies every active thread is
// time-blocked — front-end stalled, or scoreboard-stalled on an outstanding
// completion — and jumps to just before the earliest unblocking event. A
// thread that could issue (it lost the per-cycle thread-selection lottery,
// nothing more) vetoes the jump, since the very next cycle would pick it.
// onLoad and lvl are main's scoreboard stall this cycle, as the cycle loop
// accounted it.
func (m *Machine) fastForwardInOrder(main *Thread, onLoad bool, lvl mem.Level) {
	next := ffNoEvent
	var eligible uint64
	// Main (context 0, active while the run goes on) and every active
	// speculative context.
	for live := m.specMask | 1; live != 0; live &= live - 1 {
		t := m.threads[bits.TrailingZeros64(live)]
		if t.frontStallUntil > m.now {
			if t.frontStallUntil < next {
				next = t.frontStallUntil
			}
			continue
		}
		if t != main {
			// Selectable speculative thread: the round-robin cursor keeps
			// rotating over these during the stall.
			eligible |= 1 << uint(t.idx)
		}
		// The thread is blocked iff a source of the instruction at its pc
		// is not ready: the wake cache answers for every thread issue just
		// tried this cycle, the scoreboard for one selection passed over.
		// (All function units are free — nothing issued this cycle — so a
		// structural stall is impossible.)
		if !t.waiting(m.now) {
			e := t.sb.stall(&m.code[t.pc], m.now)
			if e == nil {
				return
			}
			t.block(t.pc, e)
		}
		if t.wakeAt < next {
			next = t.wakeAt
		}
	}
	m.ffJump(main, onLoad, lvl, next, eligible)
}

// fastForwardOOO attempts a stall jump on the out-of-order model after a
// cycle in which nothing retired, issued, or dispatched. Every active thread
// must have dispatch blocked and no issuable reservation-station entry; the
// events are front-stall expiries, the ROB head's completion, and the
// earliest ready cycle among the station's entries. A thread with a
// data-ready entry vetoes the jump (it only failed to issue because
// selection passed it over this cycle). Nothing here scans the window: the
// station and its cached wakeup state are the same ones the select loop
// reads.
func (m *Machine) fastForwardOOO(main *Thread) {
	next := ffNoEvent
	var eligible uint64
	for live := m.specMask | 1; live != 0; live &= live - 1 {
		t := m.threads[bits.TrailingZeros64(live)]
		if t != main {
			eligible |= 1 << uint(t.idx)
		}
		w := t.win
		// Dispatch must be unable to proceed for a timed reason; otherwise
		// the thread would dispatch the cycle selection next picks it.
		if !(t.frontStallUntil > m.now || w.blocked >= 0 || w.haltAfterDrain ||
			w.full() || (w.waitDrain && w.size() > 0)) {
			return
		}
		if t.frontStallUntil > m.now {
			next = min(next, t.frontStallUntil)
		}
		// Retirement is in order, so only the head's completion can retire
		// anything (an unissued head's doneAt is notIssued, past any event).
		if w.headAbs < w.tailAbs {
			if d := w.at(w.headAbs).doneAt; d > m.now {
				next = min(next, d)
			}
		}
		// An issuable entry, or a future entry already due (its thread was
		// not selected this cycle, so nothing promoted it), vetoes the jump.
		// Otherwise the next issue is at futureMin. A station entry still
		// waiting on an unissued producer needs no event: that producer is
		// older and unissued, so it is in the station too.
		if w.nIssuable > 0 || w.futureMin <= m.now {
			return
		}
		next = min(next, w.futureMin)
	}
	m.ffJump(main, false, 0, next, eligible)
}

// ffJump performs the jump: clamp the next-event cycle against the
// classification events and the watchdog, bulk-credit the skipped cycles,
// advance the selection cursor, and move the clock. Nothing issued in the
// cycle just simulated and nothing can issue before the jump target, so
// every skipped cycle is accounted as that cycle was: no main issue, and
// main's scoreboard stall (onLoad, from level lvl) if it had one.
func (m *Machine) ffJump(main *Thread, onLoad bool, lvl mem.Level, next int64, eligible uint64) {
	// Never jump across a completion of one of main's pending fills: the
	// breakdown category of a stalled cycle is the deepest outstanding
	// fill's level, which changes at each completion.
	if _, any := main.deepestOutstanding(m.now); any && main.pendNext < next {
		next = main.pendNext
	}
	if e, ok := m.Hier.EarliestPending(m.now); ok && e < next {
		next = e
	}
	if next == ffNoEvent {
		return
	}
	// Resume one cycle before the event so the event cycle itself is
	// simulated normally; never move past the watchdog boundary (the slow
	// path credits stall cycles up to exactly MaxCycles before timing out).
	target := next - 1
	if target > m.Cfg.MaxCycles {
		target = m.Cfg.MaxCycles
	}
	k := target - m.now
	if k <= 0 {
		return
	}
	m.accountCycles(main, 0, onLoad, lvl, k)
	m.advanceRR(k, eligible)
	m.res.FastForwards++
	m.res.FastForwardedCycles += k
	m.now = target
	if m.cycle != nil {
		m.cycle.Jump(m, k)
	}
}

// advanceRR advances the round-robin cursor exactly as k selection passes
// over a static eligible set would, in closed form. The first pass picks the
// first eligible context at or after the cursor, and each later pass the next
// one in the same wrapped order, so the k-th pick is the ((k-1) mod
// |eligible|)-th eligible context counted from the first pick, and the
// cursor ends one past it.
func (m *Machine) advanceRR(k int64, eligible uint64) {
	if k == 0 || eligible == 0 {
		return
	}
	// The wrapped order from the cursor: the contexts at or after it, then
	// the ones before.
	set := eligible >> uint(m.rr) << uint(m.rr)
	j := int((k - 1) % int64(bits.OnesCount64(eligible)))
	if n := bits.OnesCount64(set); j >= n {
		j, set = j-n, eligible&^set
	}
	for ; j > 0; j-- {
		set &= set - 1
	}
	m.rr = m.pastPick(bits.TrailingZeros64(set))
}
