package ir

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"

	"ssp/internal/pages"
)

// MaxParsedDataPages bounds a parsed data section's page table in 4 KB pages,
// its radix leaves included: 16 MiB, twice the largest built-in image
// (treeadd, 2048 pages at paper scale), however sparse the source. Programs
// built through SetWord are trusted and unbounded.
const MaxParsedDataPages = 4096

// ErrDataSpan is the error Parse wraps, with the offending line, when a data
// section spans more than MaxParsedDataPages pages.
var ErrDataSpan = fmt.Errorf("data section spans more than %d pages", MaxParsedDataPages)

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
			return ErrDataSpan
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
	m := make(map[string]Op, NumOps)
	for op := Op(0); op < NumOps; op++ {
		m[opTable[op].name] = op
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

// parseInstr parses a single instruction line (comments already stripped):
// an optional qualifying predicate "(pN) ", the mnemonic, then the operands
// of its opTable row.
func parseInstr(line string) (*Instr, error) {
	in := &Instr{}
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
	op, ok := opByName[mnemonic]
	if !ok {
		// cmp and fcmp carry their relation as a ".cond" suffix.
		name, cc, _ := strings.Cut(mnemonic, ".")
		if op, ok = opByName[name]; !ok || !opTable[op].cond {
			return nil, fmt.Errorf("unknown mnemonic %q", mnemonic)
		}
		if in.Cond, ok = condByName[cc]; !ok {
			return nil, fmt.Errorf("unknown condition %q", cc)
		}
	}
	in.Op = op
	r := &opTable[op]
	if len(r.syntax) == 0 {
		if rest != "" {
			return nil, fmt.Errorf("%s takes no operands, got %q", op, rest)
		}
		return in, nil
	}
	// A form without '=' reads its one operand from the whole rest.
	ops := r.syntax
	if r.lhs > 0 {
		lhs, rhs, hasEq := strings.Cut(rest, "=")
		if !hasEq {
			return nil, fmt.Errorf("%s requires '='", op)
		}
		if err := in.parseOperands(r.syntax[:r.lhs], strings.TrimSpace(lhs)); err != nil {
			return nil, err
		}
		ops, rest = r.syntax[r.lhs:], strings.TrimSpace(rhs)
	}
	return in, in.parseOperands(ops, rest)
}

// parseOperands parses one side of an instruction's '=': the operands ops,
// comma separated, the last taking whatever the others leave.
func (in *Instr) parseOperands(ops []operand, s string) error {
	side := s
	for k, o := range ops {
		text := s
		if k < len(ops)-1 {
			var ok bool
			if text, s, ok = strings.Cut(s, ","); !ok {
				return fmt.Errorf("%s: %q is not %d comma-separated operands", in.Op, side, len(ops))
			}
		}
		if err := in.parseOperand(o, strings.TrimSpace(text)); err != nil {
			return err
		}
	}
	return nil
}

// parseOperand parses one operand's text into its Instr fields.
func (in *Instr) parseOperand(o operand, s string) error {
	var err error
	switch o {
	case oRd:
		in.Rd, err = parseGR(s)
	case oRa:
		in.Ra, err = parseGR(s)
	case oRb:
		in.Rb, err = parseGR(s)
	case oOp2:
		err = parseOp2(in, s)
	case oImm:
		if in.Imm, err = strconv.ParseInt(s, 0, 64); err != nil {
			err = fmt.Errorf("bad immediate %q", s)
		}
	case oPd1:
		in.Pd1, err = parsePR(s)
	case oPd2:
		in.Pd2, err = parsePR(s)
	case oMem:
		in.Ra, in.Disp, err = parseMem(s)
	case oMemInc:
		if mem, inc, ok := strings.Cut(s, "],"); ok {
			s = s[:len(mem)+1] // the memory operand through its ']'
			if in.PostInc, err = strconv.ParseInt(strings.TrimSpace(inc), 0, 64); err != nil {
				return fmt.Errorf("bad post-increment %q", inc)
			}
		}
		in.Ra, in.Disp, err = parseMem(strings.TrimSpace(s))
	case oBd:
		in.Bd, err = parseBR(s)
	case oBs:
		in.Bs, err = parseBR(s)
	case oFuncOrRa:
		if fn, ok := strings.CutPrefix(s, "@"); ok {
			err = in.setTarget(fn)
		} else {
			in.Ra, err = parseGR(s)
		}
	case oSlot:
		in.Imm, err = parseSlot(s)
	case oFd:
		in.Fd, err = parseFR(s)
	case oFa:
		in.Fa, err = parseFR(s)
	case oFb:
		in.Fb, err = parseFR(s)
	case oFc:
		in.Fc, err = parseFR(s)
	case oTarget:
		err = in.setTarget(s)
	}
	return err
}

// setTarget sets a label, spawn or function target: one name, with no
// whitespace or '=' in it.
func (in *Instr) setTarget(s string) error {
	if s == "" {
		return fmt.Errorf("%s requires a target", in.Op)
	}
	if strings.ContainsFunc(s, func(r rune) bool { return r == '=' || unicode.IsSpace(r) }) {
		return fmt.Errorf("%s: bad target %q", in.Op, s)
	}
	in.Target = s
	return nil
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

func parseGR(s string) (Reg, error) { return parseReg[Reg](s, "r", NumRegs, "general") }
func parsePR(s string) (PR, error)  { return parseReg[PR](s, "p", NumPreds, "predicate") }
func parseFR(s string) (FR, error)  { return parseReg[FR](s, "f", NumFRs, "FP") }
func parseBR(s string) (BR, error)  { return parseReg[BR](s, "b", NumBRs, "branch") }

// parseReg parses a register name: prefix, then a decimal number below n.
func parseReg[R ~uint8](s, prefix string, n int, file string) (R, error) {
	num, ok := strings.CutPrefix(s, prefix)
	v, err := strconv.Atoi(num)
	if !ok || err != nil || v < 0 || v >= n {
		return 0, fmt.Errorf("bad %s register %q", file, s)
	}
	return R(v), nil
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
