// Package decode is the predecode stage of the execution core: it lowers a
// linked ir.Image into a dense []Decoded sidecar exactly once per image, so
// that none of the engines (the functional interpreter, the in-order model,
// the OOO model) ever re-inspects ir.Instr on the per-dynamic-instruction hot
// path. Each Decoded carries:
//
//   - a handler kind (H), with the immediate/register addressing forms of
//     the hot ALU and compare opcodes split into separate kinds: the threaded
//     compiler specializes pure instructions on it, and the engines dispatch
//     memory and control instructions through a table indexed by it;
//   - the function-unit class and a config-independent latency class (the
//     machine resolves LatClass against its Config once, in a 5-entry table);
//   - all scalar operands copied out of the ir.Instr (registers, predicates,
//     immediates, displacements) plus the pre-resolved branch/spawn target;
//   - the use/def location sets, inline in fixed-size arrays, so the
//     scoreboard and rename walks read one 64-byte record per PC and chase
//     no pointer.
//
// A Program is immutable after Predecode and carries no machine state, so one
// predecoded image is safely shared by any number of machines across models
// and goroutines — exp.Suite caches one per binary and runs every matrix
// cell against it.
package decode

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"ssp/internal/ir"
)

// FUClass groups opcodes by the function unit they occupy.
type FUClass uint8

const (
	FUNone FUClass = iota
	FUInt
	FUMem
	FUBr
	FUFP
	// NumFUClasses sizes per-class tables.
	NumFUClasses
)

// MaxUses bounds Decoded.NU: ir.Instr.AppendUses yields at most the
// qualifying predicate plus three operands (fma's three FP sources).
// Predecode enforces it, so the OOO engine sizes its per-record source links
// to it with no overflow path.
const MaxUses = 4

// MaxDefs bounds Decoded.ND: ir.Instr.AppendDefs yields at most two
// locations (a compare's predicate pair, a post-increment load's
// destination and base). Predecode enforces it.
const MaxDefs = 2

// LatClass names an execution latency independently of machine configuration;
// the machine resolves it to cycles against its Config (MulLat, FPLat,
// LIBCopyLat) once at construction. Keeping the predecoded image
// config-independent is what lets one decode serve every machine model.
type LatClass uint8

const (
	// Lat1 is the single-cycle class (ALU, branches, memory issue).
	Lat1 LatClass = iota
	// Lat2 is the two-cycle class (setf/getf cross-file moves).
	Lat2
	// LatMul resolves to Config.MulLat.
	LatMul
	// LatFP resolves to Config.FPLat.
	LatFP
	// LatLIB resolves to Config.LIBCopyLat.
	LatLIB
	// NumLatClasses sizes the machine's resolution table.
	NumLatClasses
)

// Handler names an instruction's execution kind: what the threaded compiler
// specializes a pure instruction on, and the index of a memory or control
// instruction in the engines' dispatch table. The hot two-operand opcodes
// are split by addressing form (register vs immediate) so each kind reads
// exactly the fields it needs.
type Handler uint8

const (
	HNop Handler = iota
	HAdd
	HAddI
	HSub
	HSubI
	HMul
	HMulI
	HAnd
	HAndI
	HOr
	HOrI
	HXor
	HXorI
	HShl
	HShlI
	HShr
	HShrI
	HMov
	HMovI
	HCmp
	HCmpI
	HLd
	HLdPI // post-increment form: Imm carries the stride
	HSt
	HLfetch
	HBr
	HCall
	HCallB
	HRet
	HMovBR
	HMovBRFunc // address-of-function form: Tgt carries the entry PC
	HMovFromBR
	HChk
	HSpawn
	HLiw
	HLir
	HKill
	HHalt
	HFAdd
	HFSub
	HFMul
	HFMA
	HFLd
	HFSt
	HFCmp
	HSetF
	HGetF
	// HTrap is the trap record at index len(Code) (Program.Exec): where
	// control that leaves the image lands. No instruction decodes to it.
	HTrap
	// NumHandlers sizes the dispatch table.
	NumHandlers
)

// Decoded is one predecoded instruction: everything the engines need at
// execution time, resolved once. Liw/Lir slot immediates are pre-masked to
// the live-in buffer size; the post-increment stride of HLdPI rides in Imm
// (plain loads never use it).
type Decoded struct {
	H   Handler
	FU  FUClass
	Lat LatClass
	Op  ir.Op
	Qp  ir.PR
	Rd  ir.Reg
	Ra  ir.Reg
	Rb  ir.Reg
	Pd1 ir.PR
	Pd2 ir.PR
	Bd  ir.BR
	Bs  ir.BR
	Fd  ir.FR
	Fa  ir.FR
	Fb  ir.FR
	Fc  ir.FR
	// Cond is the comparison relation for HCmp/HCmpI/HFCmp.
	Cond ir.Cond

	// Tgt is the resolved target PC for branch-like handlers (-1 if none)
	// and ID the stable instruction identity (memory statistics key).
	Tgt int32
	ID  int32

	Imm  int64
	Disp int64

	// Uses[:NU] and Defs[:ND] are the location sets the scoreboard and
	// rename stages walk.
	Uses   [MaxUses]ir.Loc
	Defs   [MaxDefs]ir.Loc
	NU, ND uint8
}

// Program is an immutable predecoded image.
type Program struct {
	// Img is the linked image the sidecar was built from (entry PC, symbol
	// tables, instruction text for tracing, initial data).
	Img *ir.Image
	// Code is the dense sidecar, indexed by PC.
	Code []Decoded
	// exec is Code followed by the trap record (Exec).
	exec []Decoded
	// MaxID is the largest static instruction ID in the image; machines
	// presize their dense per-load stat tables from it so the counting path
	// never allocates.
	MaxID int

	// thrOnce/thr cache the threaded-code compile of this image (see
	// internal/sim/threaded). The sidecar is config-independent and
	// immutable like the Program itself, so it is built at most once and
	// shared by every machine and goroutine that executes this image. It is
	// held as an opaque any to keep decode a leaf package.
	thrOnce sync.Once
	thr     any
}

// Threaded returns the per-image threaded-code sidecar, invoking build at
// most once over the Program's lifetime (concurrent callers block on the
// first build). The cache key is the Program identity: exp.Suite memoizes
// one Program per binary, so the compile is amortized exactly like the
// predecode itself.
func (p *Program) Threaded(build func() any) any {
	p.thrOnce.Do(func() { p.thr = build() })
	return p.thr
}

// Exec returns the array the engines execute: Code followed by one trap
// record (HTrap) at index len(Code). A fall-through past the last
// instruction lands on the trap, and so does a ret or callb whose branch
// register holds no code address (sim's handlers bound their targets onto
// it), so control that leaves the image reaches a defined handler. Digest
// covers Code only; the trap is the same for every image.
func (p *Program) Exec() []Decoded { return p.exec }

// Digest returns a SHA-256 over everything the engines execute from this
// image: the entry PC, every decoded instruction with the linked-block
// leaders the threaded core compiles over, and then the data image's own
// SHA-256 (ir.DataImage.Sum, computed once per sealed image).
// Programs with equal digests run identically on every engine and machine
// configuration, however they were produced, so exp.Suite keys its
// simulation cells on the digest.
func (p *Program) Digest() [sha256.Size]byte {
	buf := make([]byte, 0, 64*len(p.Code)+16+sha256.Size)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.Img.Entry))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.Code)))
	for pc := range p.Code {
		d := &p.Code[pc]
		leader := byte(0)
		if pc > 0 && p.Img.BlockOf[pc] != p.Img.BlockOf[pc-1] {
			leader = 1
		}
		buf = append(buf, leader, byte(d.H), byte(d.FU), byte(d.Lat), byte(d.Op), byte(d.Qp),
			byte(d.Rd), byte(d.Ra), byte(d.Rb), byte(d.Pd1), byte(d.Pd2), byte(d.Bd), byte(d.Bs),
			byte(d.Fd), byte(d.Fa), byte(d.Fb), byte(d.Fc), byte(d.Cond))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.Tgt))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(d.ID))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Imm))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.Disp))
		for _, locs := range [2][]ir.Loc{d.Uses[:d.NU], d.Defs[:d.ND]} {
			buf = append(buf, byte(len(locs)))
			for _, l := range locs {
				buf = binary.LittleEndian.AppendUint16(buf, uint16(l))
			}
		}
	}
	sum := p.Img.Data.Sum()
	buf = append(buf, sum[:]...)
	return sha256.Sum256(buf)
}

// Classify maps an opcode to its function-unit and latency classes.
func Classify(op ir.Op) (FUClass, LatClass) {
	switch op {
	case ir.OpNop, ir.OpKill, ir.OpHalt:
		return FUNone, Lat1
	case ir.OpMul:
		return FUInt, LatMul
	case ir.OpMov, ir.OpMovI, ir.OpCmp, ir.OpMovFromBR, ir.OpMovBR,
		ir.OpAdd, ir.OpSub, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
		return FUInt, Lat1
	case ir.OpLd, ir.OpSt, ir.OpLfetch, ir.OpFLd, ir.OpFSt:
		return FUMem, Lat1 // loads get their latency from the hierarchy
	case ir.OpLiw, ir.OpLir:
		return FUMem, LatLIB
	case ir.OpBr, ir.OpCall, ir.OpCallB, ir.OpRet, ir.OpChk, ir.OpSpawn:
		return FUBr, Lat1
	case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFMA, ir.OpFCmp:
		return FUFP, LatFP
	case ir.OpSetF, ir.OpGetF:
		return FUInt, Lat2 // cross-file moves take an extra cycle
	}
	return FUInt, Lat1
}

// aluHandlers maps the two-operand ALU opcodes to their register-form
// handler; the immediate form is the next index.
var aluHandlers = map[ir.Op]Handler{
	ir.OpAdd: HAdd, ir.OpSub: HSub, ir.OpMul: HMul, ir.OpAnd: HAnd,
	ir.OpOr: HOr, ir.OpXor: HXor, ir.OpShl: HShl, ir.OpShr: HShr,
}

// handlerOf selects the handler index for one instruction, splitting the
// addressing forms that have dedicated handlers.
func handlerOf(in *ir.Instr) Handler {
	if h, ok := aluHandlers[in.Op]; ok {
		if in.UseImm {
			return h + 1
		}
		return h
	}
	switch in.Op {
	case ir.OpNop:
		return HNop
	case ir.OpMov:
		return HMov
	case ir.OpMovI:
		return HMovI
	case ir.OpCmp:
		if in.UseImm {
			return HCmpI
		}
		return HCmp
	case ir.OpLd:
		if in.PostInc != 0 {
			return HLdPI
		}
		return HLd
	case ir.OpSt:
		return HSt
	case ir.OpLfetch:
		return HLfetch
	case ir.OpBr:
		return HBr
	case ir.OpCall:
		return HCall
	case ir.OpCallB:
		return HCallB
	case ir.OpRet:
		return HRet
	case ir.OpMovBR:
		if in.Target != "" {
			return HMovBRFunc
		}
		return HMovBR
	case ir.OpMovFromBR:
		return HMovFromBR
	case ir.OpChk:
		return HChk
	case ir.OpSpawn:
		return HSpawn
	case ir.OpLiw:
		return HLiw
	case ir.OpLir:
		return HLir
	case ir.OpKill:
		return HKill
	case ir.OpHalt:
		return HHalt
	case ir.OpFAdd:
		return HFAdd
	case ir.OpFSub:
		return HFSub
	case ir.OpFMul:
		return HFMul
	case ir.OpFMA:
		return HFMA
	case ir.OpFLd:
		return HFLd
	case ir.OpFSt:
		return HFSt
	case ir.OpFCmp:
		return HFCmp
	case ir.OpSetF:
		return HSetF
	case ir.OpGetF:
		return HGetF
	}
	return HNop
}

// Predecode lowers a linked image into its dense sidecar. The result is
// immutable and safe for concurrent sharing.
func Predecode(img *ir.Image) *Program {
	n := len(img.Code)
	exec := make([]Decoded, n+1)
	exec[n] = Decoded{H: HTrap, Tgt: -1, ID: -1}
	code := exec[:n]
	var locs []ir.Loc
	for pc := range img.Code {
		l := &img.Code[pc]
		in := &l.I
		d := &code[pc]
		d.H = handlerOf(in)
		d.FU, d.Lat = Classify(in.Op)
		d.Op = in.Op
		d.Qp = in.Qp
		d.Rd, d.Ra, d.Rb = in.Rd, in.Ra, in.Rb
		d.Pd1, d.Pd2 = in.Pd1, in.Pd2
		d.Bd, d.Bs = in.Bd, in.Bs
		d.Fd, d.Fa, d.Fb, d.Fc = in.Fd, in.Fa, in.Fb, in.Fc
		d.Cond = in.Cond
		d.Tgt = l.Tgt
		d.ID = int32(in.ID)
		d.Imm = in.Imm
		d.Disp = in.Disp
		switch d.H {
		case HLdPI:
			d.Imm = in.PostInc
		case HLiw, HLir:
			d.Imm = in.Imm & (ir.LIBSlots - 1)
		}
		locs = in.AppendUses(locs[:0])
		if len(locs) > MaxUses {
			panic(fmt.Sprintf("decode: pc %d (%v) reads %d locations, more than MaxUses=%d", pc, in.Op, len(locs), MaxUses))
		}
		d.NU = uint8(copy(d.Uses[:], locs))
		locs = in.AppendDefs(locs[:0])
		if len(locs) > MaxDefs {
			panic(fmt.Sprintf("decode: pc %d (%v) writes %d locations, more than MaxDefs=%d", pc, in.Op, len(locs), MaxDefs))
		}
		d.ND = uint8(copy(d.Defs[:], locs))
	}
	maxID := 0
	for pc := range code {
		if id := int(code[pc].ID); id > maxID {
			maxID = id
		}
	}
	return &Program{Img: img, Code: code, exec: exec, MaxID: maxID}
}
