package sim

import (
	"math"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
)

// archEffect captures everything the engines need to apply timing after the
// architectural execution of one instruction.
type archEffect struct {
	nextPC    int
	nullified bool

	memKind  uint8 // 0 none, 1 load, 2 store, 3 prefetch
	memAddr  uint64
	memID    int
	loadDest ir.Loc

	brCond  bool // conditional branch needing prediction
	brTaken bool

	halt bool
	kill bool
}

const (
	memNone uint8 = iota
	memLoad
	memStore
	memPrefetch
)

// handlerFn is one entry of the architectural dispatch table for memory and
// control instructions. Handlers read their operands from the predecoded
// record and write machine state plus the parts of the effect that differ
// from the fall-through default.
type handlerFn func(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect)

// execArch performs the architectural effects of the instruction at pc for
// thread t: register, predicate, branch-register, memory, live-in buffer,
// spawn and chk.c context effects, and the next PC. Timing (latencies, FU
// occupancy, penalties) is the engines' business.
//
// A pure instruction runs the image's compiled step (threaded.Program.Steps),
// the one definition of its semantics, which applies its own qualifying
// predicate. It leaves the engines nothing to time beyond its latency and
// always falls through to pc+1, so execArch returns a nil effect for it. A
// memory or control instruction dispatches through the handler table,
// because its effect on the engines — the access the timing model charges,
// speculative-store suppression, spawn and chk.c — goes beyond the
// architectural state a step writes.
func (m *Machine) execArch(t *Thread, pc int) *archEffect {
	if m.exec != nil && pc != m.trap {
		// Hooks observe the image's instructions; the trap is none.
		m.exec.Exec(m, t, pc)
	}
	if s := m.steps[pc]; s != nil {
		s(&t.Ctx)
		return nil
	}
	// The effect lives in a Machine-resident scratch slot, returned by
	// pointer: handlers receive it across an indirect call (which would
	// force a heap allocation were it a local), and the engines read it in
	// place instead of copying it per executed instruction. The slot is
	// dead once the caller's timing logic for the instruction ends;
	// execArch is never reentered within one instruction.
	ef := &m.ef
	d := &m.code[pc]
	*ef = archEffect{nextPC: pc + 1, memID: int(d.ID)}
	if d.Qp != ir.PTrue && !t.Preds[d.Qp] {
		ef.nullified = true
		if d.Op == ir.OpBr {
			ef.brCond = true // trained as not-taken
		}
		return ef
	}
	handlers[d.H](m, t, d, pc, ef)
	return ef
}

// handlers covers exactly the handler kinds with no compiled step.
var handlers = [decode.NumHandlers]handlerFn{
	decode.HLd:     hLd,
	decode.HLdPI:   hLdPI,
	decode.HSt:     hSt,
	decode.HLfetch: hLfetch,
	decode.HBr:     hBr,
	decode.HCall:   hCall,
	decode.HCallB:  hCallB,
	decode.HRet:    hRet,
	decode.HChk:    hChk,
	decode.HSpawn:  hSpawn,
	decode.HKill:   hKill,
	decode.HHalt:   hHalt,
	decode.HFLd:    hFLd,
	decode.HFSt:    hFSt,
	decode.HTrap:   hTrap,
}

func hLd(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	addr := t.Regs[d.Ra] + uint64(d.Disp)
	t.SetReg(d.Rd, m.Mem.Load(addr))
	ef.memKind, ef.memAddr = memLoad, addr
	ef.loadDest = ir.GRLoc(d.Rd)
}

func hLdPI(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	// Post-increment form: d.Imm carries the stride. The base update reads
	// Ra after the destination write, so ld rX = [rX], s post-increments
	// the loaded value — exactly the pre-split semantics.
	addr := t.Regs[d.Ra] + uint64(d.Disp)
	t.SetReg(d.Rd, m.Mem.Load(addr))
	t.SetReg(d.Ra, t.Regs[d.Ra]+uint64(d.Imm))
	ef.memKind, ef.memAddr = memLoad, addr
	ef.loadDest = ir.GRLoc(d.Rd)
}

func hSt(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	addr := t.Regs[d.Ra] + uint64(d.Disp)
	if t.spec {
		// P-slices never contain stores (§2); if one sneaks into a
		// speculative thread the hardware suppresses it so the main
		// thread's architectural state is never altered.
		m.res.SpecStores++
	} else {
		m.Mem.Store(addr, t.Regs[d.Rb])
		ef.memKind, ef.memAddr = memStore, addr
	}
}

func hLfetch(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	ef.memKind, ef.memAddr = memPrefetch, t.Regs[d.Ra]+uint64(d.Disp)
}

func hBr(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	ef.brTaken = true
	ef.brCond = d.Qp != ir.PTrue
	ef.nextPC = int(d.Tgt)
}

func hCall(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	t.BRs[d.Bd] = uint64(pc + 1)
	ef.nextPC = int(d.Tgt)
}

// hCallB and hRet jump through a branch register, which may hold any
// value: a target past the code lands on the trap (hTrap).
func hCallB(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	tgt := m.bound(t.BRs[d.Bs])
	t.BRs[d.Bd] = uint64(pc + 1)
	ef.nextPC = tgt
}

func hRet(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	ef.nextPC = m.bound(t.BRs[d.Bs])
}

// bound maps a dynamic jump target onto the code, or onto the trap.
func (m *Machine) bound(tgt uint64) int {
	return int(min(tgt, uint64(m.trap)))
}

func hChk(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	if t.spec || m.noSpec || m.now-t.lastChkTaken < m.Cfg.SpawnCooldown {
		return
	}
	if m.freeContext() != nil {
		// Lightweight exception: divert to the stub block.
		m.res.ChkTaken++
		t.lastChkTaken = m.now
		t.resumePC = pc + 1
		ef.nextPC = int(d.Tgt)
		ef.brTaken = true
	}
}

func hSpawn(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	if m.noSpec {
		m.res.SpawnsIgnored++
	} else if c := m.freeContext(); c != nil {
		m.startThread(c, int(d.Tgt), t)
		m.res.Spawns++
	} else {
		m.res.SpawnsIgnored++
	}
	if t.resumePC >= 0 {
		ef.nextPC = t.resumePC
		t.resumePC = -1
		ef.brTaken = true
	}
}

func hKill(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	ef.kill = true
}

func hHalt(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	if t.spec {
		ef.kill = true
	} else {
		ef.halt = true
	}
}

// hTrap runs where control left the image: a fall-through past the last
// instruction, or a ret or callb target past the code. A speculative thread
// dies as if it ran kill. The main thread stops as if it halted, with
// Result.PCRange set, which fails the run (Result.Err).
func hTrap(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	if t.spec {
		ef.kill = true
	} else {
		m.res.PCRange = true
		ef.halt = true
	}
}

func hFLd(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	addr := t.Regs[d.Ra] + uint64(d.Disp)
	t.SetFR(d.Fd, math.Float64frombits(m.Mem.Load(addr)))
	ef.memKind, ef.memAddr = memLoad, addr
	ef.loadDest = ir.FRLoc(d.Fd)
}

func hFSt(m *Machine, t *Thread, d *decode.Decoded, pc int, ef *archEffect) {
	addr := t.Regs[d.Ra] + uint64(d.Disp)
	if t.spec {
		m.res.SpecStores++
	} else {
		m.Mem.Store(addr, math.Float64bits(t.FR(d.Fa)))
		ef.memKind, ef.memAddr = memStore, addr
	}
}
