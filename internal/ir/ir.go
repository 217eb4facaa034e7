// Package ir defines the Itanium-flavoured intermediate representation the
// post-pass SSP tool operates on.
//
// Following the paper (§2.2), the post-pass tool does not work on raw machine
// encodings: it "reads in the compiler intermediate representation (IR) and
// the control flow graph (CFG)", where the IR "exactly matches the hardware
// instructions in the binary". This package is that representation: a
// predicated, load/store RISC ISA in the style of the Itanium processor
// family, with 128 general registers, 64 predicate registers, 8 branch
// registers, an advanced-load-style speculation check (chk.c) used as the
// SSP trigger instruction, explicit prefetch (lfetch), and the SSP extensions
// from the paper: spawn, live-in buffer writes/reads, and thread_kill_self.
//
// Programs are structured as functions of basic blocks; a linker flattens a
// program into an executable Image consumed by the simulator (package sim).
package ir

import "fmt"

// Reg names a general (integer) register, r0..r127. r0 is hardwired to zero,
// as on Itanium. By software convention (mirroring the Itanium ABI): r1 is
// the global pointer, r8 the return value, r12 the stack pointer, r14..r31
// are scratch, and r32..r39 carry the first eight arguments.
type Reg uint8

// NumRegs is the number of general registers per hardware thread context.
const NumRegs = 128

// Well-known registers under the software convention used by the workload
// generators and by the SSP code generator.
const (
	RegZero Reg = 0  // hardwired zero
	RegGP   Reg = 1  // global pointer
	RegRet  Reg = 8  // return value
	RegSP   Reg = 12 // stack pointer
	RegArg0 Reg = 32 // first argument register; args are r32..r39
)

func (r Reg) String() string { return fmt.Sprintf("r%d", uint8(r)) }

// PR names a predicate register, p0..p63. p0 is hardwired to true.
type PR uint8

// NumPreds is the number of predicate registers per thread context.
const NumPreds = 64

// PTrue is the hardwired always-true qualifying predicate p0.
const PTrue PR = 0

func (p PR) String() string { return fmt.Sprintf("p%d", uint8(p)) }

// BR names a branch register, b0..b7. b0 conventionally holds the return
// link of the current procedure.
type BR uint8

// NumBRs is the number of branch registers per thread context.
const NumBRs = 8

// LIBSlots is the number of live-in buffer slots per thread context (the
// modelled RSE backing-store window, §2.1). Liw/Lir slot immediates wrap
// modulo this size in hardware; well-formed SSP code stays below it, which
// ssp.AnalyzeSafety enforces for every liw and lir in a program.
const LIBSlots = 16

func (b BR) String() string { return fmt.Sprintf("b%d", uint8(b)) }

// FR names a floating-point register, f0..f127. Following the Itanium
// architecture, f0 reads as +0.0 and f1 as +1.0; writes to them are ignored.
type FR uint8

// NumFRs is the number of FP registers per thread context (Table 1: 128).
const NumFRs = 128

// FZero and FOne are the hardwired FP constants.
const (
	FZero FR = 0
	FOne  FR = 1
)

func (f FR) String() string { return fmt.Sprintf("f%d", uint8(f)) }

// Op enumerates the instruction opcodes of the IR, the FP extension's
// included. Each opcode's static facts — its mnemonic, its assembly syntax
// and the read/write role of every operand in it, its control class and the
// kind of symbolic target it names — are one row of opTable, which the
// printer, the parser, AppendUses/AppendDefs, Link, Validate and the
// control-flow analyses all read. Opcode values are part of the predecoded
// image digest and must not be renumbered.
type Op uint8

const (
	// OpNop does nothing. The binary emitted by the first compilation pass
	// contains padding nops; the post-pass tool replaces one with chk.c
	// when embedding a trigger (Figure 7).
	OpNop Op = iota

	// Arithmetic and logical operations: Rd = Ra <op> (Rb | Imm).
	OpAdd
	OpSub
	OpMul
	OpAnd
	OpOr
	OpXor
	OpShl
	OpShr

	// OpMov copies a register: Rd = Ra.
	OpMov
	// OpMovI loads a 64-bit immediate: Rd = Imm (Itanium movl).
	OpMovI

	// OpCmp compares Ra with (Rb|Imm) under Cond and writes the result to
	// predicate Pd1 and its complement to Pd2 (Itanium cmp.crel p1,p2=...).
	OpCmp

	// OpLd loads a 64-bit word: Rd = [Ra+Disp]. If PostInc is nonzero the
	// base register is incremented by PostInc after the access (Itanium
	// ld8 r=[r],imm).
	OpLd
	// OpSt stores a 64-bit word: [Ra+Disp] = Rb.
	OpSt
	// OpLfetch issues a non-faulting, non-binding prefetch of [Ra+Disp].
	OpLfetch

	// OpBr branches to Target. Predicated via Qp; an always-true Qp makes
	// it unconditional.
	OpBr
	// OpCall calls function Target, saving the return link in Bd.
	OpCall
	// OpCallB calls indirectly through branch register Bs, saving the
	// return link in Bd. Indirect calls are instrumented during profiling
	// to capture the dynamic call graph (§3.1.2).
	OpCallB
	// OpRet returns through branch register Bs.
	OpRet
	// OpMovBR writes a branch register from a general register: Bd = Ra.
	// With Target set (and Ra == r0) it loads the address of a function
	// instead, for use with OpCallB.
	OpMovBR
	// OpMovFromBR reads a branch register: Rd = Bs.
	OpMovFromBR

	// OpChk is the SSP trigger instruction chk.c (§3.4.2): at retirement,
	// if a free hardware thread context is available it raises a
	// lightweight exception whose recovery code is the stub block at
	// Target; otherwise it behaves like a nop.
	OpChk
	// OpSpawn binds a new speculative thread to a free hardware context,
	// starting at Target, and hands it the current thread's outgoing
	// live-in buffer. If no context is free the request is ignored (§2.1).
	// Spawn appears in stub blocks and inside chaining slices.
	OpSpawn
	// OpLiw copies general register Ra into slot Imm of the outgoing
	// live-in buffer (the Register Stack Engine backing store, §2.1).
	OpLiw
	// OpLir copies slot Imm of this thread's incoming live-in buffer into
	// general register Rd.
	OpLir
	// OpKill terminates the executing speculative thread and frees its
	// hardware context (thread_kill_self in Figures 5 and 6).
	OpKill

	// OpHalt terminates the program (main thread only).
	OpHalt

	// The FP extension: FP register operands in Fd/Fa/Fb/Fc.

	// OpFAdd: Fd = Fa + Fb.
	OpFAdd
	// OpFSub: Fd = Fa - Fb.
	OpFSub
	// OpFMul: Fd = Fa * Fb.
	OpFMul
	// OpFMA is the fused multiply-add at the heart of Itanium FP codes:
	// Fd = Fa*Fb + Fc.
	OpFMA
	// OpFLd loads a 64-bit float: Fd = [Ra+Disp] (ldfd).
	OpFLd
	// OpFSt stores a 64-bit float: [Ra+Disp] = Fa (stfd).
	OpFSt
	// OpFCmp compares Fa with Fb under Cond and writes Pd1/Pd2
	// (fcmp.crel). Only EQ/NE/LT/LE/GT/GE apply.
	OpFCmp
	// OpSetF moves a general register's bits into an FP register:
	// Fd = bits(Ra) (setf.d).
	OpSetF
	// OpGetF moves an FP register's bits into a general register:
	// Rd = bits(Fa) (getf.d).
	OpGetF

	// NumOps is the opcode count.
	NumOps
)

// Cond is a comparison relation for OpCmp and OpFCmp.
type Cond uint8

const (
	CondEQ Cond = iota
	CondNE
	CondLT // signed <
	CondLE // signed <=
	CondGT // signed >
	CondGE // signed >=
	CondLTU
	CondGEU
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge", "ltu", "geu"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond%d", uint8(c))
}

// Instr is a single IR instruction. Every instruction carries a qualifying
// predicate Qp (p0 meaning "always"): when Qp evaluates false at run time the
// instruction is dynamically nullified, as on Itanium.
//
// Instructions have a stable identity (ID) assigned by the owning Program.
// Profiles (package profile) and the dependence graph (package dep) are keyed
// by ID, so the post-pass tool can correlate run-time feedback with static
// instructions across transformations, exactly as the paper's tool keys cache
// profiles to static loads.
type Instr struct {
	ID int // stable identity within a Program; 0 means unassigned

	Op  Op
	Qp  PR // qualifying predicate; PTrue for unpredicated execution
	Rd  Reg
	Ra  Reg
	Rb  Reg
	Pd1 PR // OpCmp: receives the comparison result
	Pd2 PR // OpCmp: receives the complement (0 = unused unless OpCmp)
	// FP register operands (the FP extension opcodes).
	Fd, Fa, Fb, Fc FR
	Bd             BR // OpCall/OpCallB/OpMovBR: defined branch register
	Bs             BR // OpRet/OpCallB/OpMovFromBR: used branch register
	Cond           Cond

	// Imm is the immediate operand (ALU second operand when UseImm, OpMovI
	// value, OpLiw/OpLir slot index).
	Imm int64
	// UseImm selects Imm instead of Rb as the second ALU/cmp operand.
	UseImm bool
	// Disp is the byte displacement for OpLd/OpSt/OpLfetch addressing.
	Disp int64
	// PostInc, when nonzero on OpLd, adds PostInc to Ra after the access.
	PostInc int64

	// Target names the destination label for branch-like opcodes: a block
	// label within the same function for OpBr/OpChk/OpSpawn (spawn may
	// also name "func.label" or a function for cross-function slices), and
	// a function name for OpCall/OpMovBR address loads.
	Target string
}

// Clone returns a copy of the instruction with the same ID.
func (i *Instr) Clone() *Instr {
	c := *i
	return &c
}

// String renders the instruction in the textual assembly syntax.
func (i *Instr) String() string { return formatInstr(i) }

// Loc is a unified storage location: a general, predicate, branch or FP
// register, in one flat namespace. It is the unit the dependence
// analysis tracks.
type Loc uint16

const (
	locGR Loc = 0   // r0..r127 -> 0..127
	locPR Loc = 128 // p0..p63  -> 128..191
	locBR Loc = 192 // b0..b7   -> 192..199
	locFR Loc = 200 // f0..f127 -> 200..327

	// NumLocs is the size of the Loc namespace.
	NumLocs = 328
)

// GRLoc returns the Loc of general register r.
func GRLoc(r Reg) Loc { return locGR + Loc(r) }

// PRLoc returns the Loc of predicate register p.
func PRLoc(p PR) Loc { return locPR + Loc(p) }

// BRLoc returns the Loc of branch register b.
func BRLoc(b BR) Loc { return locBR + Loc(b) }

// FRLoc returns the Loc of FP register f.
func FRLoc(f FR) Loc { return locFR + Loc(f) }

// IsGR reports whether l names a general register, and which.
func (l Loc) IsGR() (Reg, bool) {
	if l < locPR {
		return Reg(l), true
	}
	return 0, false
}

// IsPR reports whether l names a predicate register, and which.
func (l Loc) IsPR() (PR, bool) {
	if l >= locPR && l < locBR {
		return PR(l - locPR), true
	}
	return 0, false
}

// IsBR reports whether l names a branch register, and which.
func (l Loc) IsBR() (BR, bool) {
	if l >= locBR && l < locFR {
		return BR(l - locBR), true
	}
	return 0, false
}

// IsFR reports whether l names an FP register, and which.
func (l Loc) IsFR() (FR, bool) {
	if l >= locFR && l < NumLocs {
		return FR(l - locFR), true
	}
	return 0, false
}

func (l Loc) String() string {
	switch {
	case l < locPR:
		return Reg(l).String()
	case l < locBR:
		return PR(l - locPR).String()
	case l < locFR:
		return BR(l - locBR).String()
	default:
		return FR(l - locFR).String()
	}
}
