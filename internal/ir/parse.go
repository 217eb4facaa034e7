package ir

import (
	"fmt"
	"strconv"
	"strings"

	"ssp/internal/pages"
)

// MaxParsedDataPages bounds a parsed data section's page table in 4 KB pages,
// its radix leaves included: 16 MiB, twice the largest built-in image
// (treeadd, 2048 pages at paper scale), however sparse the source. Programs
// built through SetWord are trusted and unbounded.
const MaxParsedDataPages = 4096

// Parse reads the textual assembly syntax produced by Format and returns the
// program. Each instruction is assigned a fresh ID in textual order.
//
// Grammar (line oriented; '#' starts a comment):
//
//	program entry=NAME
//	func NAME formals=N { LABEL: INSTR... } ...
//	data { 0xADDR: VALUE ... }
//
// Data addresses must be 8-byte aligned, and the data section may span at
// most MaxParsedDataPages pages.
func Parse(src string) (*Program, error) {
	pr := &parser{names: make(map[string]string)}
	lines := strings.Split(src, "\n")
	for n, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if err := pr.line(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", n+1, err)
		}
	}
	if pr.p == nil {
		return nil, fmt.Errorf("ir: missing 'program' header")
	}
	if err := pr.p.Validate(); err != nil {
		return nil, err
	}
	return pr.p, nil
}

type parser struct {
	p      *Program
	fn     *Func
	bb     *BlockBuilder
	inData bool
	// names holds one copy of every name the program keeps (its entry,
	// function names, block labels and branch targets), so the parsed
	// program does not pin the source text its names were cut from.
	names map[string]string
}

// name returns a copy of s that does not share the source text's memory,
// the same copy for every occurrence of s.
func (pr *parser) name(s string) string {
	if c, ok := pr.names[s]; ok {
		return c
	}
	c := strings.Clone(s)
	pr.names[c] = c
	return c
}

func (pr *parser) line(line string) error {
	switch {
	case strings.HasPrefix(line, "program "):
		rest := strings.TrimSpace(strings.TrimPrefix(line, "program "))
		entry, ok := strings.CutPrefix(rest, "entry=")
		if !ok {
			return fmt.Errorf("expected 'program entry=NAME'")
		}
		pr.p = NewProgram(pr.name(strings.TrimSpace(entry)))
		return nil
	case strings.HasPrefix(line, "func "):
		if pr.p == nil {
			return fmt.Errorf("'func' before 'program'")
		}
		rest := strings.TrimSuffix(strings.TrimSpace(strings.TrimPrefix(line, "func ")), "{")
		fields := strings.Fields(rest)
		if len(fields) < 1 {
			return fmt.Errorf("malformed func header")
		}
		pr.fn = pr.p.AddFunc(pr.name(fields[0]))
		for _, f := range fields[1:] {
			if v, ok := strings.CutPrefix(f, "formals="); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					return fmt.Errorf("bad formals: %v", err)
				}
				pr.fn.NumFormals = n
			}
		}
		pr.bb = nil
		return nil
	case line == "data {":
		if pr.p == nil {
			return fmt.Errorf("'data' before 'program'")
		}
		pr.inData = true
		pr.fn = nil
		return nil
	case line == "}":
		pr.fn = nil
		pr.bb = nil
		pr.inData = false
		return nil
	}
	if pr.inData {
		addr, val, ok := strings.Cut(line, ":")
		if !ok {
			return fmt.Errorf("malformed data line %q", line)
		}
		a, err := strconv.ParseUint(strings.TrimSpace(addr), 0, 64)
		if err != nil {
			return fmt.Errorf("bad data address: %v", err)
		}
		v, err := strconv.ParseUint(strings.TrimSpace(val), 0, 64)
		if err != nil {
			return fmt.Errorf("bad data value: %v", err)
		}
		if a&7 != 0 {
			return fmt.Errorf("data address %#x is not 8-byte aligned", a)
		}
		pr.p.SetWord(a, v)
		if d := pr.p.Data; d.t.Len()+d.t.Leaves()*pages.LeafPages > MaxParsedDataPages {
			return fmt.Errorf("data section spans more than %d pages", MaxParsedDataPages)
		}
		return nil
	}
	if pr.fn == nil {
		return fmt.Errorf("instruction outside function: %q", line)
	}
	if strings.HasSuffix(line, ":") && !strings.ContainsAny(line, " \t") {
		label := strings.TrimSuffix(line, ":")
		pr.bb = NewBlockBuilder(pr.p, pr.fn, pr.fn.AddBlock(pr.name(label)))
		return nil
	}
	if pr.bb == nil {
		return fmt.Errorf("instruction before first label: %q", line)
	}
	in, err := parseInstr(line)
	if err != nil {
		return err
	}
	if in.Target != "" {
		in.Target = pr.name(in.Target)
	}
	pr.p.Assign(in)
	pr.bb.B.Append(in)
	return nil
}

var opByName = func() map[string]Op {
	m := make(map[string]Op)
	for op := Op(0); op < numOps; op++ {
		m[op.String()] = op
	}
	for op := numOps; op < numOpsFP; op++ {
		m[op.String()] = op
	}
	return m
}()

var condByName = func() map[string]Cond {
	m := make(map[string]Cond)
	for i, n := range condNames {
		m[n] = Cond(i)
	}
	return m
}()

// parseInstr parses a single instruction line (comments already stripped).
func parseInstr(line string) (*Instr, error) {
	in := &Instr{}
	// Optional qualifying predicate "(pN) ".
	if strings.HasPrefix(line, "(") {
		end := strings.IndexByte(line, ')')
		if end < 0 {
			return nil, fmt.Errorf("unclosed predicate in %q", line)
		}
		p, err := parsePR(strings.TrimSpace(line[1:end]))
		if err != nil {
			return nil, err
		}
		in.Qp = p
		line = strings.TrimSpace(line[end+1:])
	}
	mnemonic, rest, _ := strings.Cut(line, " ")
	rest = strings.TrimSpace(rest)

	// cmp/fcmp carry their condition in the mnemonic.
	if cc, ok := strings.CutPrefix(mnemonic, "cmp."); ok {
		cond, ok := condByName[cc]
		if !ok {
			return nil, fmt.Errorf("unknown condition %q", cc)
		}
		in.Op, in.Cond = OpCmp, cond
		return parseOperands(in, rest)
	}
	if cc, ok := strings.CutPrefix(mnemonic, "fcmp."); ok {
		cond, ok := condByName[cc]
		if !ok {
			return nil, fmt.Errorf("unknown condition %q", cc)
		}
		in.Op, in.Cond = OpFCmp, cond
		return parseOperands(in, rest)
	}
	op, ok := opByName[mnemonic]
	if !ok {
		return nil, fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	in.Op = op
	return parseOperands(in, rest)
}

func parseOperands(in *Instr, rest string) (*Instr, error) {
	lhs, rhs, hasEq := strings.Cut(rest, "=")
	lhs, rhs = strings.TrimSpace(lhs), strings.TrimSpace(rhs)
	switch in.Op {
	case OpNop, OpKill, OpHalt:
		return in, nil
	case OpBr, OpChk, OpSpawn:
		in.Target = strings.TrimSpace(rest)
		if in.Target == "" {
			return nil, fmt.Errorf("%s requires a target", in.Op)
		}
		return in, nil
	case OpRet:
		b, err := parseBR(strings.TrimSpace(rest))
		in.Bs = b
		return in, err
	case OpLfetch:
		ra, disp, err := parseMem(strings.TrimSpace(rest))
		in.Ra, in.Disp = ra, disp
		return in, err
	}
	if !hasEq {
		return nil, fmt.Errorf("%s requires '='", in.Op)
	}
	switch in.Op {
	case OpMovI:
		rd, err := parseGR(lhs)
		if err != nil {
			return nil, err
		}
		imm, err := strconv.ParseInt(rhs, 0, 64)
		if err != nil {
			return nil, fmt.Errorf("bad immediate %q", rhs)
		}
		in.Rd, in.Imm = rd, imm
		return in, nil
	case OpMov:
		rd, err := parseGR(lhs)
		if err != nil {
			return nil, err
		}
		ra, err := parseGR(rhs)
		if err != nil {
			return nil, err
		}
		in.Rd, in.Ra = rd, ra
		return in, nil
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr:
		rd, err := parseGR(lhs)
		if err != nil {
			return nil, err
		}
		in.Rd = rd
		a, b, ok := strings.Cut(rhs, ",")
		if !ok {
			return nil, fmt.Errorf("%s needs two source operands", in.Op)
		}
		if in.Ra, err = parseGR(strings.TrimSpace(a)); err != nil {
			return nil, err
		}
		return in, parseOp2(in, strings.TrimSpace(b))
	case OpCmp:
		p1s, p2s, ok := strings.Cut(lhs, ",")
		if !ok {
			return nil, fmt.Errorf("cmp needs two destination predicates")
		}
		var err error
		if in.Pd1, err = parsePR(strings.TrimSpace(p1s)); err != nil {
			return nil, err
		}
		if in.Pd2, err = parsePR(strings.TrimSpace(p2s)); err != nil {
			return nil, err
		}
		a, b, ok := strings.Cut(rhs, ",")
		if !ok {
			return nil, fmt.Errorf("cmp needs two source operands")
		}
		if in.Ra, err = parseGR(strings.TrimSpace(a)); err != nil {
			return nil, err
		}
		return in, parseOp2(in, strings.TrimSpace(b))
	case OpLd:
		rd, err := parseGR(lhs)
		if err != nil {
			return nil, err
		}
		in.Rd = rd
		memPart := rhs
		if memStr, incStr, ok := strings.Cut(rhs, "],"); ok {
			memPart = memStr + "]"
			inc, err := strconv.ParseInt(strings.TrimSpace(incStr), 0, 64)
			if err != nil {
				return nil, fmt.Errorf("bad post-increment %q", incStr)
			}
			in.PostInc = inc
		}
		in.Ra, in.Disp, err = parseMem(strings.TrimSpace(memPart))
		return in, err
	case OpSt:
		ra, disp, err := parseMem(lhs)
		if err != nil {
			return nil, err
		}
		rb, err := parseGR(rhs)
		if err != nil {
			return nil, err
		}
		in.Ra, in.Disp, in.Rb = ra, disp, rb
		return in, nil
	case OpCall:
		bd, err := parseBR(lhs)
		if err != nil {
			return nil, err
		}
		in.Bd, in.Target = bd, rhs
		return in, nil
	case OpCallB:
		bd, err := parseBR(lhs)
		if err != nil {
			return nil, err
		}
		bs, err := parseBR(rhs)
		if err != nil {
			return nil, err
		}
		in.Bd, in.Bs = bd, bs
		return in, nil
	case OpMovBR:
		bd, err := parseBR(lhs)
		if err != nil {
			return nil, err
		}
		in.Bd = bd
		if fn, ok := strings.CutPrefix(rhs, "@"); ok {
			in.Target = fn
			return in, nil
		}
		in.Ra, err = parseGR(rhs)
		return in, err
	case OpMovFromBR:
		rd, err := parseGR(lhs)
		if err != nil {
			return nil, err
		}
		bs, err := parseBR(rhs)
		if err != nil {
			return nil, err
		}
		in.Rd, in.Bs = rd, bs
		return in, nil
	case OpFAdd, OpFSub, OpFMul:
		fd, err := parseFR(lhs)
		if err != nil {
			return nil, err
		}
		a, b, ok := strings.Cut(rhs, ",")
		if !ok {
			return nil, fmt.Errorf("%s needs two source operands", in.Op)
		}
		fa, err := parseFR(strings.TrimSpace(a))
		if err != nil {
			return nil, err
		}
		fb, err := parseFR(strings.TrimSpace(b))
		if err != nil {
			return nil, err
		}
		in.Fd, in.Fa, in.Fb = fd, fa, fb
		return in, nil
	case OpFMA:
		fd, err := parseFR(lhs)
		if err != nil {
			return nil, err
		}
		parts := strings.Split(rhs, ",")
		if len(parts) != 3 {
			return nil, fmt.Errorf("fma needs three source operands")
		}
		fa, err := parseFR(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, err
		}
		fb, err := parseFR(strings.TrimSpace(parts[1]))
		if err != nil {
			return nil, err
		}
		fc, err := parseFR(strings.TrimSpace(parts[2]))
		if err != nil {
			return nil, err
		}
		in.Fd, in.Fa, in.Fb, in.Fc = fd, fa, fb, fc
		return in, nil
	case OpFLd:
		fd, err := parseFR(lhs)
		if err != nil {
			return nil, err
		}
		ra, disp, err := parseMem(rhs)
		if err != nil {
			return nil, err
		}
		in.Fd, in.Ra, in.Disp = fd, ra, disp
		return in, nil
	case OpFSt:
		ra, disp, err := parseMem(lhs)
		if err != nil {
			return nil, err
		}
		fa, err := parseFR(rhs)
		if err != nil {
			return nil, err
		}
		in.Ra, in.Disp, in.Fa = ra, disp, fa
		return in, nil
	case OpFCmp:
		p1s, p2s, ok := strings.Cut(lhs, ",")
		if !ok {
			return nil, fmt.Errorf("fcmp needs two destination predicates")
		}
		var err error
		if in.Pd1, err = parsePR(strings.TrimSpace(p1s)); err != nil {
			return nil, err
		}
		if in.Pd2, err = parsePR(strings.TrimSpace(p2s)); err != nil {
			return nil, err
		}
		a, b, ok := strings.Cut(rhs, ",")
		if !ok {
			return nil, fmt.Errorf("fcmp needs two source operands")
		}
		if in.Fa, err = parseFR(strings.TrimSpace(a)); err != nil {
			return nil, err
		}
		if in.Fb, err = parseFR(strings.TrimSpace(b)); err != nil {
			return nil, err
		}
		return in, nil
	case OpSetF:
		fd, err := parseFR(lhs)
		if err != nil {
			return nil, err
		}
		ra, err := parseGR(rhs)
		if err != nil {
			return nil, err
		}
		in.Fd, in.Ra = fd, ra
		return in, nil
	case OpGetF:
		rd, err := parseGR(lhs)
		if err != nil {
			return nil, err
		}
		fa, err := parseFR(rhs)
		if err != nil {
			return nil, err
		}
		in.Rd, in.Fa = rd, fa
		return in, nil
	case OpLiw:
		slot, err := parseSlot(lhs)
		if err != nil {
			return nil, err
		}
		ra, err := parseGR(rhs)
		if err != nil {
			return nil, err
		}
		in.Imm, in.Ra = slot, ra
		return in, nil
	case OpLir:
		rd, err := parseGR(lhs)
		if err != nil {
			return nil, err
		}
		slot, err := parseSlot(rhs)
		if err != nil {
			return nil, err
		}
		in.Rd, in.Imm = rd, slot
		return in, nil
	}
	return nil, fmt.Errorf("cannot parse operands for %s", in.Op)
}

// parseOp2 parses the second source operand: a register or an immediate.
func parseOp2(in *Instr, s string) error {
	if strings.HasPrefix(s, "r") {
		rb, err := parseGR(s)
		if err != nil {
			return err
		}
		in.Rb = rb
		return nil
	}
	imm, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return fmt.Errorf("bad operand %q", s)
	}
	in.Imm, in.UseImm = imm, true
	return nil
}

func parseGR(s string) (Reg, error) {
	n, ok := cutRegNum(s, "r")
	if !ok || n >= NumRegs {
		return 0, fmt.Errorf("bad general register %q", s)
	}
	return Reg(n), nil
}

func parsePR(s string) (PR, error) {
	n, ok := cutRegNum(s, "p")
	if !ok || n >= NumPreds {
		return 0, fmt.Errorf("bad predicate register %q", s)
	}
	return PR(n), nil
}

func parseFR(s string) (FR, error) {
	n, ok := cutRegNum(s, "f")
	if !ok || n >= NumFRs {
		return 0, fmt.Errorf("bad FP register %q", s)
	}
	return FR(n), nil
}

func parseBR(s string) (BR, error) {
	n, ok := cutRegNum(s, "b")
	if !ok || n >= NumBRs {
		return 0, fmt.Errorf("bad branch register %q", s)
	}
	return BR(n), nil
}

func cutRegNum(s, prefix string) (int, bool) {
	num, ok := strings.CutPrefix(s, prefix)
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

// parseSlot parses a live-in buffer slot "[N]".
func parseSlot(s string) (int64, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, fmt.Errorf("bad live-in slot %q", s)
	}
	n, err := strconv.ParseInt(s[1:len(s)-1], 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad live-in slot %q", s)
	}
	return n, nil
}

// parseMem parses "[rN]" or "[rN+disp]" / "[rN-disp]".
func parseMem(s string) (Reg, int64, error) {
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	regPart := inner
	var disp int64
	for i := 1; i < len(inner); i++ {
		if inner[i] == '+' || inner[i] == '-' {
			d, err := strconv.ParseInt(inner[i:], 0, 64)
			if err != nil {
				return 0, 0, fmt.Errorf("bad displacement in %q", s)
			}
			disp = d
			regPart = inner[:i]
			break
		}
	}
	r, err := parseGR(strings.TrimSpace(regPart))
	return r, disp, err
}
