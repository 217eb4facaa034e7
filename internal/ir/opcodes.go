package ir

import "fmt"

// Control is an opcode's control class: how it moves its thread's PC.
type Control uint8

const (
	// CtlNone continues at pc+1.
	CtlNone Control = iota
	// CtlJump (br) continues at its label target when its qualifying
	// predicate holds and at pc+1 otherwise.
	CtlJump
	// CtlCall (call, callb) enters a function and leaves pc+1 as the
	// return address.
	CtlCall
	// CtlReturn (ret) continues at the address in a branch register.
	CtlReturn
	// CtlTrap (chk.c, spawn) continues at pc+1 architecturally. Its target
	// is reached by a micro-architectural detour — the trigger's stub, a
	// new speculative context — and the stub resumes at pc+1.
	CtlTrap
	// CtlStop (halt, kill) ends the thread.
	CtlStop
)

// TargetKind is the kind of symbolic name an instruction's Target holds.
type TargetKind uint8

const (
	NoTarget TargetKind = iota
	// LabelTarget is a block label in the instruction's own function (br,
	// chk.c).
	LabelTarget
	// SpawnTarget is a block label in the instruction's own function, a
	// "func.label" pair, or a function name (spawn).
	SpawnTarget
	// FuncTarget is a function name (call, movbr @f).
	FuncTarget
)

// operand is one slot of an opcode's assembly syntax: the Instr fields it
// names, how it is written, and whether the instruction reads or writes it.
type operand uint8

const (
	oRd       operand = iota // rN, written: Rd
	oRa                      // rN, read: Ra
	oRb                      // rN, read: Rb
	oOp2                     // rN or an immediate: Rb (read), or Imm with UseImm
	oImm                     // an immediate: Imm
	oPd1                     // pN, written: Pd1
	oPd2                     // pN, written: Pd2
	oMem                     // [rN], [rN+D] or [rN-D]: Ra (read) and Disp
	oMemInc                  // oMem with an optional ", N" post-increment: PostInc, writing Ra when nonzero
	oBd                      // bN, written: Bd
	oBs                      // bN, read: Bs
	oFuncOrRa                // @NAME (Target) or rN (Ra, read)
	oSlot                    // [N], a live-in buffer slot: Imm
	oFd                      // fN, written: Fd
	oFa                      // fN, read: Fa
	oFb                      // fN, read: Fb
	oFc                      // fN, read: Fc
	oTarget                  // NAME: Target
)

// opInfo is one opcode's row of opTable.
type opInfo struct {
	name string
	// cond marks a mnemonic written with a ".cond" relation suffix (cmp,
	// fcmp); without one it means eq.
	cond bool
	// syntax lists the operands in assembly order; the first lhs of them
	// stand left of '=', and with lhs 0 the form has no '='.
	syntax []operand
	lhs    int
	ctl    Control
	tgt    TargetKind
}

// opTable is the one static description of every opcode.
var opTable = [NumOps]opInfo{
	OpNop:       {name: "nop"},
	OpAdd:       {name: "add", syntax: []operand{oRd, oRa, oOp2}, lhs: 1},
	OpSub:       {name: "sub", syntax: []operand{oRd, oRa, oOp2}, lhs: 1},
	OpMul:       {name: "mul", syntax: []operand{oRd, oRa, oOp2}, lhs: 1},
	OpAnd:       {name: "and", syntax: []operand{oRd, oRa, oOp2}, lhs: 1},
	OpOr:        {name: "or", syntax: []operand{oRd, oRa, oOp2}, lhs: 1},
	OpXor:       {name: "xor", syntax: []operand{oRd, oRa, oOp2}, lhs: 1},
	OpShl:       {name: "shl", syntax: []operand{oRd, oRa, oOp2}, lhs: 1},
	OpShr:       {name: "shr", syntax: []operand{oRd, oRa, oOp2}, lhs: 1},
	OpMov:       {name: "mov", syntax: []operand{oRd, oRa}, lhs: 1},
	OpMovI:      {name: "movi", syntax: []operand{oRd, oImm}, lhs: 1},
	OpCmp:       {name: "cmp", cond: true, syntax: []operand{oPd1, oPd2, oRa, oOp2}, lhs: 2},
	OpLd:        {name: "ld8", syntax: []operand{oRd, oMemInc}, lhs: 1},
	OpSt:        {name: "st8", syntax: []operand{oMem, oRb}, lhs: 1},
	OpLfetch:    {name: "lfetch", syntax: []operand{oMem}},
	OpBr:        {name: "br", syntax: []operand{oTarget}, ctl: CtlJump, tgt: LabelTarget},
	OpCall:      {name: "call", syntax: []operand{oBd, oTarget}, lhs: 1, ctl: CtlCall, tgt: FuncTarget},
	OpCallB:     {name: "callb", syntax: []operand{oBd, oBs}, lhs: 1, ctl: CtlCall},
	OpRet:       {name: "ret", syntax: []operand{oBs}, ctl: CtlReturn},
	OpMovBR:     {name: "movbr", syntax: []operand{oBd, oFuncOrRa}, lhs: 1, tgt: FuncTarget},
	OpMovFromBR: {name: "movfbr", syntax: []operand{oRd, oBs}, lhs: 1},
	OpChk:       {name: "chk.c", syntax: []operand{oTarget}, ctl: CtlTrap, tgt: LabelTarget},
	OpSpawn:     {name: "spawn", syntax: []operand{oTarget}, ctl: CtlTrap, tgt: SpawnTarget},
	OpLiw:       {name: "liw", syntax: []operand{oSlot, oRa}, lhs: 1},
	OpLir:       {name: "lir", syntax: []operand{oRd, oSlot}, lhs: 1},
	OpKill:      {name: "kill", ctl: CtlStop},
	OpHalt:      {name: "halt", ctl: CtlStop},
	OpFAdd:      {name: "fadd", syntax: []operand{oFd, oFa, oFb}, lhs: 1},
	OpFSub:      {name: "fsub", syntax: []operand{oFd, oFa, oFb}, lhs: 1},
	OpFMul:      {name: "fmul", syntax: []operand{oFd, oFa, oFb}, lhs: 1},
	OpFMA:       {name: "fma", syntax: []operand{oFd, oFa, oFb, oFc}, lhs: 1},
	OpFLd:       {name: "ldfd", syntax: []operand{oFd, oMem}, lhs: 1},
	OpFSt:       {name: "stfd", syntax: []operand{oMem, oFa}, lhs: 1},
	OpFCmp:      {name: "fcmp", cond: true, syntax: []operand{oPd1, oPd2, oFa, oFb}, lhs: 2},
	OpSetF:      {name: "setf", syntax: []operand{oFd, oRa}, lhs: 1},
	OpGetF:      {name: "getf", syntax: []operand{oRd, oFa}, lhs: 1},
}

// noOp is the empty row of an out-of-range opcode.
var noOp opInfo

// info returns the opcode's row.
func (o Op) info() *opInfo {
	if o < NumOps {
		return &opTable[o]
	}
	return &noOp
}

func (o Op) String() string {
	if o < NumOps {
		return opTable[o].name
	}
	return fmt.Sprintf("op%d", uint8(o))
}

// Control returns the opcode's control class.
func (o Op) Control() Control { return o.info().ctl }

// EndsBlock reports whether the opcode ends a basic block of the
// architected CFG: it has no fall-through unless its predicate nullifies it
// (br, ret, halt, kill). Calls and chk.c/spawn fall through.
func (o Op) EndsBlock() bool {
	c := o.Control()
	return c == CtlJump || c == CtlReturn || c == CtlStop
}

// IsBranch reports whether the opcode transfers control (including calls and
// returns, excluding chk.c which traps rather than branches).
func (o Op) IsBranch() bool {
	c := o.Control()
	return c == CtlJump || c == CtlCall || c == CtlReturn
}

// HasSideEffect reports whether the instruction must never be included in a
// p-slice: it writes memory or the live-in buffer (a memory or slot operand
// left of '='), or it moves the PC other than by the slice's own branches
// (any control class but none and jump: calls, returns, traps, stops). The
// paper's tool "ensures that no store instructions are included in the
// precomputation" (§2).
func (i *Instr) HasSideEffect() bool {
	r := i.Op.info()
	if r.ctl != CtlNone && r.ctl != CtlJump {
		return true
	}
	for _, o := range r.syntax[:r.lhs] {
		if o == oMem || o == oSlot {
			return true
		}
	}
	return false
}

// TargetKind returns the kind of name the instruction's Target holds:
// its opcode's, or NoTarget for movbr's register form.
func (i *Instr) TargetKind() TargetKind {
	r := i.Op.info()
	for _, o := range r.syntax {
		if o == oFuncOrRa && i.Target == "" {
			return NoTarget
		}
	}
	return r.tgt
}

// AppendUses appends the locations read by the instruction to dst and
// returns the extended slice: the qualifying predicate, then the operands
// the instruction reads in syntax order. The slicing algorithm follows the
// predicate as a control/data input, which is how the paper's tool picks up
// compare chains feeding predicated slice code. Reads of the hardwired r0,
// p0, f0 and f1 are omitted.
func (i *Instr) AppendUses(dst []Loc) []Loc {
	if i.Qp != PTrue {
		dst = append(dst, PRLoc(i.Qp))
	}
	for _, o := range i.Op.info().syntax {
		switch o {
		case oRa, oMem, oMemInc:
			dst = appendGR(dst, i.Ra)
		case oRb:
			dst = appendGR(dst, i.Rb)
		case oOp2:
			if !i.UseImm {
				dst = appendGR(dst, i.Rb)
			}
		case oFuncOrRa:
			if i.Target == "" {
				dst = appendGR(dst, i.Ra)
			}
		case oBs:
			dst = append(dst, BRLoc(i.Bs))
		case oFa:
			dst = appendFR(dst, i.Fa)
		case oFb:
			dst = appendFR(dst, i.Fb)
		case oFc:
			dst = appendFR(dst, i.Fc)
		}
	}
	return dst
}

// AppendDefs appends the locations written by the instruction to dst, in
// syntax order, and returns the extended slice. Writes to the hardwired
// r0, p0, f0 and f1 are omitted (they are architectural no-ops). Calls may
// clobber scratch and return-value registers; the dependence analysis
// models this via call summaries rather than listing every register here.
func (i *Instr) AppendDefs(dst []Loc) []Loc {
	for _, o := range i.Op.info().syntax {
		switch o {
		case oRd:
			dst = appendGR(dst, i.Rd)
		case oMemInc:
			if i.PostInc != 0 {
				dst = appendGR(dst, i.Ra)
			}
		case oPd1:
			dst = appendPR(dst, i.Pd1)
		case oPd2:
			dst = appendPR(dst, i.Pd2)
		case oBd:
			dst = append(dst, BRLoc(i.Bd))
		case oFd:
			dst = appendFR(dst, i.Fd)
		}
	}
	return dst
}

// AppendGRReads appends pointers to the general-register fields the
// instruction reads, in syntax order (a post-increment base among them),
// and returns the extended slice. Unlike AppendUses it keeps r0.
func (i *Instr) AppendGRReads(dst []*Reg) []*Reg {
	for _, o := range i.Op.info().syntax {
		switch {
		case o == oRa, o == oMem, o == oMemInc, o == oFuncOrRa && i.Target == "":
			dst = append(dst, &i.Ra)
		case o == oRb, o == oOp2 && !i.UseImm:
			dst = append(dst, &i.Rb)
		}
	}
	return dst
}

// GRDest returns the general-register destination field (Rd) if the
// instruction has one, else nil. A post-increment base is not one.
func (i *Instr) GRDest() *Reg {
	for _, o := range i.Op.info().syntax {
		if o == oRd {
			return &i.Rd
		}
	}
	return nil
}

func appendGR(dst []Loc, r Reg) []Loc {
	if r != RegZero {
		dst = append(dst, GRLoc(r))
	}
	return dst
}

func appendPR(dst []Loc, p PR) []Loc {
	if p != PTrue {
		dst = append(dst, PRLoc(p))
	}
	return dst
}

func appendFR(dst []Loc, f FR) []Loc {
	if f != FZero && f != FOne {
		dst = append(dst, FRLoc(f))
	}
	return dst
}
