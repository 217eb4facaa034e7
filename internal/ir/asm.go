package ir

import (
	"strconv"
	"strings"
)

// formatInstr renders one instruction in the textual assembly syntax
// accepted by Parse.
func formatInstr(i *Instr) string { return string(appendInstr(nil, i)) }

// appendInstr appends the instruction's assembly text to b: the qualifying
// predicate, the mnemonic, then the operands of its opTable row.
func appendInstr(b []byte, i *Instr) []byte {
	if i.Qp != PTrue {
		b = append(b, "(p"...)
		b = strconv.AppendUint(b, uint64(i.Qp), 10)
		b = append(b, ") "...)
	}
	if i.Op >= NumOps {
		return append(append(b, i.Op.String()...), " ???"...)
	}
	r := &opTable[i.Op]
	b = append(b, r.name...)
	if r.cond {
		b = append(append(b, '.'), i.Cond.String()...)
	}
	for k, o := range r.syntax {
		switch {
		case k == 0:
			b = append(b, ' ')
		case k == r.lhs:
			b = append(b, " = "...)
		default:
			b = append(b, ", "...)
		}
		b = i.appendOperand(b, o)
	}
	return b
}

// appendOperand appends the text of one operand.
func (i *Instr) appendOperand(b []byte, o operand) []byte {
	switch o {
	case oRd:
		return appendReg(b, 'r', uint8(i.Rd))
	case oRa:
		return appendReg(b, 'r', uint8(i.Ra))
	case oRb:
		return appendReg(b, 'r', uint8(i.Rb))
	case oOp2:
		if i.UseImm {
			return strconv.AppendInt(b, i.Imm, 10)
		}
		return appendReg(b, 'r', uint8(i.Rb))
	case oImm:
		return strconv.AppendInt(b, i.Imm, 10)
	case oPd1:
		return appendReg(b, 'p', uint8(i.Pd1))
	case oPd2:
		return appendReg(b, 'p', uint8(i.Pd2))
	case oMem, oMemInc:
		b = appendReg(append(b, '['), 'r', uint8(i.Ra))
		if i.Disp > 0 {
			b = append(b, '+')
		}
		if i.Disp != 0 {
			b = strconv.AppendInt(b, i.Disp, 10)
		}
		b = append(b, ']')
		if o == oMemInc && i.PostInc != 0 {
			b = strconv.AppendInt(append(b, ", "...), i.PostInc, 10)
		}
		return b
	case oBd:
		return appendReg(b, 'b', uint8(i.Bd))
	case oBs:
		return appendReg(b, 'b', uint8(i.Bs))
	case oFuncOrRa:
		if i.Target != "" {
			return append(append(b, '@'), i.Target...)
		}
		return appendReg(b, 'r', uint8(i.Ra))
	case oSlot:
		return append(strconv.AppendInt(append(b, '['), i.Imm, 10), ']')
	case oFd:
		return appendReg(b, 'f', uint8(i.Fd))
	case oFa:
		return appendReg(b, 'f', uint8(i.Fa))
	case oFb:
		return appendReg(b, 'f', uint8(i.Fb))
	case oFc:
		return appendReg(b, 'f', uint8(i.Fc))
	default: // oTarget
		return append(b, i.Target...)
	}
}

func appendReg(b []byte, file byte, n uint8) []byte {
	return strconv.AppendUint(append(b, file), uint64(n), 10)
}

// Format renders the whole program as assembly text. The output parses back
// to an equivalent program via Parse (instruction IDs are not serialized;
// they are reassigned in textual order on parse).
func Format(p *Program) string {
	var sb strings.Builder
	// line holds one line's text at a time, so the builder is the only
	// growing buffer.
	line := append([]byte(nil), "program entry="...)
	line = append(line, p.Entry...)
	sb.Write(append(line, '\n'))
	for _, f := range p.Funcs {
		line = append(line[:0], "\nfunc "...)
		line = append(line, f.Name...)
		line = append(line, " formals="...)
		line = strconv.AppendInt(line, int64(f.NumFormals), 10)
		sb.Write(append(line, " {\n"...))
		for _, bl := range f.Blocks {
			sb.WriteString(bl.Label)
			sb.WriteString(":\n")
			for _, in := range bl.Instrs {
				line = appendInstr(append(line[:0], '\t'), in)
				sb.Write(append(line, '\n'))
			}
		}
		sb.WriteString("}\n")
	}
	if p.Data.Len() > 0 {
		sb.WriteString("\ndata {\n")
		p.Data.Range(func(a, v uint64) {
			line = strconv.AppendUint(append(line[:0], "\t0x"...), a, 16)
			line = strconv.AppendUint(append(line, ": "...), v, 10)
			sb.Write(append(line, '\n'))
		})
		sb.WriteString("}\n")
	}
	return sb.String()
}
