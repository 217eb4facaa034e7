package sim

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/workloads"
)

// rsAuditor checks the OOO reservation station against a recomputation from
// the window after every simulated cycle. As an exec hook it records, for
// each record about to be dispatched, the live producers the rename table
// names for its sources; as the cycle observer it audits every active window
// after each simulated cycle.
type rsAuditor struct {
	tb testing.TB
	// srcs[ctx][a&mask] lists the producer positions of the record at
	// absolute position a in context ctx, as renamed at its dispatch.
	srcs [][][]int64
	cov  RSCoverage
}

// RSCoverage counts what an audited run exercised, so a test can require
// that each station path was actually taken.
type RSCoverage struct {
	// Cycles is the number of audited (thread, cycle) pairs.
	Cycles int
	// Idle counts pairs whose station was non-empty but had nothing
	// issuable and nothing due: the select pass's early return.
	Idle int
	// Outside counts pairs with unissued records outside a full station.
	Outside int
	// Spec counts audited pairs on speculative threads.
	Spec int
}

func (c *rsAuditor) Exec(m *Machine, t *Thread, pc int) {
	w := t.win
	if w == nil {
		return
	}
	for len(c.srcs) <= t.idx {
		c.srcs = append(c.srcs, nil)
	}
	if len(c.srcs[t.idx]) != len(w.recs) {
		c.srcs[t.idx] = make([][]int64, len(w.recs))
	}
	// Exec fires before the record claims tailAbs and before its own defs
	// rename, so the table still names its producers.
	var ps []int64
	for _, loc := range m.code[pc].Uses {
		if pa := w.rename[loc]; pa >= w.headAbs {
			ps = append(ps, pa)
		}
	}
	c.srcs[t.idx][w.tailAbs&w.mask] = ps
}

func (c *rsAuditor) Cycle(m *Machine) {
	for _, t := range m.threads {
		if t.active && t.win != nil {
			c.audit(m, t)
		}
	}
}

// Jump audits nothing: a jump moves only the clock, and the first cycle
// after it is audited.
func (*rsAuditor) Jump(*Machine, int64) {}

func (c *rsAuditor) audit(m *Machine, t *Thread) {
	tb, w, now := c.tb, t.win, m.now
	fail := func(format string, args ...any) {
		tb.Helper()
		tb.Fatalf("cycle %d context %d: "+format, append([]any{now, t.idx}, args...)...)
	}
	c.cov.Cycles++
	if t.spec {
		c.cov.Spec++
	}

	// The station is the oldest min(rsCap, unissued) unissued records:
	// exactly the unissued positions below rsFront, everything from
	// rsFront on unissued.
	var station []int64
	unissued := 0
	for a := w.headAbs; a < w.tailAbs; a++ {
		if w.at(a).doneAt != notIssued {
			if a >= w.rsFront {
				fail("position %d at or past rsFront %d has issued", a, w.rsFront)
			}
			continue
		}
		unissued++
		if a < w.rsFront {
			station = append(station, a)
		}
	}
	if want := min(w.rsCap, unissued); len(station) != want || w.rsN != want {
		fail("station holds %d records (rsN %d), want the oldest %d of %d unissued", len(station), w.rsN, want, unissued)
	}
	if w.rsFront > w.tailAbs {
		fail("rsFront %d past tailAbs %d", w.rsFront, w.tailAbs)
	}
	if w.rsFront < w.tailAbs {
		c.cov.Outside++
	}

	inFuture := make(map[int64]bool, len(w.future))
	futureMin := ffNoEvent
	for _, a := range w.future {
		if inFuture[a] {
			fail("position %d filed in future twice", a)
		}
		inFuture[a] = true
		futureMin = min(futureMin, w.wake[a&w.mask])
	}
	if futureMin != w.futureMin {
		fail("futureMin %d, want %d", w.futureMin, futureMin)
	}

	issuable := 0
	for _, a := range station {
		// Recompute the wake word from the ring: producers still live
		// either have not issued (pending) or contribute their doneAt.
		// Retired producers finished by now, so a cached ready cycle may
		// exceed the recomputed one only when both are in the past.
		pending, ready := int64(0), int64(0)
		for _, p := range c.srcs[t.idx][a&w.mask] {
			if p < w.headAbs {
				continue
			}
			if d := w.at(p).doneAt; d == notIssued {
				pending++
			} else {
				ready = max(ready, d)
			}
		}
		word := w.wake[a&w.mask]
		gotPending, gotReady := word/pendingUnit, word&readyMask
		if gotPending != pending || gotReady < ready || (gotReady != ready && gotReady > now) {
			fail("position %d: cached pending %d ready %d, recomputed pending %d ready %d",
				a, gotPending, gotReady, pending, ready)
		}
		i := a & w.mask
		bit := w.issuable[i>>6]&(1<<uint(i&63)) != 0
		if bit {
			issuable++
		}
		switch {
		case pending > 0 && (bit || inFuture[a]):
			fail("position %d waits on %d producers but is filed", a, pending)
		case pending == 0 && bit == inFuture[a]:
			fail("position %d is data-ready but filed issuable=%v future=%v", a, bit, inFuture[a])
		case bit && gotReady > now:
			fail("position %d issuable before its ready cycle %d", a, gotReady)
		}
		delete(inFuture, a)
	}
	for a := range inFuture {
		fail("future holds position %d, not an unissued station entry", a)
	}
	if issuable != w.nIssuable {
		fail("nIssuable %d, station has %d issuable bits", w.nIssuable, issuable)
	}
	total := 0
	for _, word := range w.issuable {
		for ; word != 0; word &= word - 1 {
			total++
		}
	}
	if total != issuable {
		fail("%d issuable bits set outside the station", total-issuable)
	}
	if w.nIssuable == 0 && w.futureMin > now && len(station) > 0 {
		// The select pass returns at once: nothing may be able to issue
		// before futureMin.
		c.cov.Idle++
		for _, a := range station {
			if word := w.wake[a&w.mask]; word < w.futureMin {
				fail("idle until %d but position %d is ready at %d", w.futureMin, a, word)
			}
		}
	}
}

// runAudited Resets m to cfg over dp, runs it with the station auditor
// attached, and returns the result and what the run covered.
func runAudited(tb testing.TB, m *Machine, cfg Config, dp *decode.Program) (*Result, RSCoverage) {
	tb.Helper()
	m.Reset(cfg, dp)
	a := &rsAuditor{tb: tb}
	m.AttachExec(a)
	m.SetCycleHooks(a)
	res, err := m.Run()
	if err != nil {
		tb.Fatal(err)
	}
	if res.TimedOut {
		tb.Fatal("watchdog expired")
	}
	return res, a.cov
}

// TestRSInvariantRandomPrograms audits the reservation station cycle by
// cycle on the random programs the check package sweeps, under the Table 1
// station and a tiny one (2 entries in an 8-record window, so the station is
// almost always full and refills on every issue, and the issuable bitmap is
// narrower than a word), per-cycle and fast-forwarded. Each station shape
// keeps one machine, Reset across its runs, and each audited result must
// equal a fresh unaudited machine's. Both timing strategies must reach an
// idle station and records outside a full one.
func TestRSInvariantRandomPrograms(t *testing.T) {
	small := testOOO()
	small.ROBSize, small.RSSize = 8, 2
	cov := map[bool]*RSCoverage{false: {}, true: {}} // by FastForward
	for _, base := range []Config{testOOO(), small} {
		var m *Machine
		for seed := int64(1); seed <= 12; seed++ {
			img, err := ir.Link(workloads.RandomProgram(seed))
			if err != nil {
				t.Fatal(err)
			}
			dp := Predecode(img)
			for _, ff := range []bool{false, true} {
				cfg := base
				cfg.FastForward = ff
				if m == nil {
					m = NewPredecoded(cfg, dp)
				}
				got, c := runAudited(t, m, cfg, dp)
				ci := cov[ff]
				ci.Cycles += c.Cycles
				ci.Idle += c.Idle
				ci.Outside += c.Outside
				want, err := NewPredecoded(cfg, dp).Run()
				if err != nil {
					t.Fatal(err)
				}
				if got.Cycles != want.Cycles || got.Breakdown != want.Breakdown || got.FinalRegs != want.FinalRegs ||
					got.FastForwards != want.FastForwards {
					t.Fatalf("seed %d rob %d ff %v: audited run differs (cycles %d vs %d)",
						seed, cfg.ROBSize, ff, got.Cycles, want.Cycles)
				}
			}
		}
	}
	for ff, c := range cov {
		if c.Idle == 0 || c.Outside == 0 {
			t.Fatalf("ff=%v: audit never saw an idle station (%d) or records outside a full one (%d)", ff, c.Idle, c.Outside)
		}
		t.Logf("ff=%v: %d audited cycles, %d idle, %d with records outside the station", ff, c.Cycles, c.Idle, c.Outside)
	}
}
