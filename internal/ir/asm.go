package ir

import (
	"fmt"
	"strings"
)

// formatInstr renders one instruction in the textual assembly syntax
// accepted by Parse.
func formatInstr(i *Instr) string {
	var sb strings.Builder
	if i.Qp != PTrue {
		fmt.Fprintf(&sb, "(%s) ", i.Qp)
	}
	op2 := func() string {
		if i.UseImm {
			return fmt.Sprintf("%d", i.Imm)
		}
		return i.Rb.String()
	}
	mem := func() string {
		if i.Disp != 0 {
			return fmt.Sprintf("[%s%+d]", i.Ra, i.Disp)
		}
		return fmt.Sprintf("[%s]", i.Ra)
	}
	switch i.Op {
	case OpNop:
		sb.WriteString("nop")
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr:
		fmt.Fprintf(&sb, "%s %s = %s, %s", i.Op, i.Rd, i.Ra, op2())
	case OpMov:
		fmt.Fprintf(&sb, "mov %s = %s", i.Rd, i.Ra)
	case OpMovI:
		fmt.Fprintf(&sb, "movi %s = %d", i.Rd, i.Imm)
	case OpCmp:
		fmt.Fprintf(&sb, "cmp.%s %s, %s = %s, %s", i.Cond, i.Pd1, i.Pd2, i.Ra, op2())
	case OpLd:
		if i.PostInc != 0 {
			fmt.Fprintf(&sb, "ld8 %s = %s, %d", i.Rd, mem(), i.PostInc)
		} else {
			fmt.Fprintf(&sb, "ld8 %s = %s", i.Rd, mem())
		}
	case OpSt:
		fmt.Fprintf(&sb, "st8 %s = %s", mem(), i.Rb)
	case OpLfetch:
		fmt.Fprintf(&sb, "lfetch %s", mem())
	case OpBr:
		fmt.Fprintf(&sb, "br %s", i.Target)
	case OpCall:
		fmt.Fprintf(&sb, "call %s = %s", i.Bd, i.Target)
	case OpCallB:
		fmt.Fprintf(&sb, "callb %s = %s", i.Bd, i.Bs)
	case OpRet:
		fmt.Fprintf(&sb, "ret %s", i.Bs)
	case OpMovBR:
		if i.Target != "" {
			fmt.Fprintf(&sb, "movbr %s = @%s", i.Bd, i.Target)
		} else {
			fmt.Fprintf(&sb, "movbr %s = %s", i.Bd, i.Ra)
		}
	case OpMovFromBR:
		fmt.Fprintf(&sb, "movfbr %s = %s", i.Rd, i.Bs)
	case OpChk:
		fmt.Fprintf(&sb, "chk.c %s", i.Target)
	case OpSpawn:
		fmt.Fprintf(&sb, "spawn %s", i.Target)
	case OpLiw:
		fmt.Fprintf(&sb, "liw [%d] = %s", i.Imm, i.Ra)
	case OpLir:
		fmt.Fprintf(&sb, "lir %s = [%d]", i.Rd, i.Imm)
	case OpKill:
		sb.WriteString("kill")
	case OpHalt:
		sb.WriteString("halt")
	case OpFAdd, OpFSub, OpFMul:
		fmt.Fprintf(&sb, "%s %s = %s, %s", i.Op, i.Fd, i.Fa, i.Fb)
	case OpFMA:
		fmt.Fprintf(&sb, "fma %s = %s, %s, %s", i.Fd, i.Fa, i.Fb, i.Fc)
	case OpFLd:
		fmt.Fprintf(&sb, "ldfd %s = %s", i.Fd, mem())
	case OpFSt:
		fmt.Fprintf(&sb, "stfd %s = %s", mem(), i.Fa)
	case OpFCmp:
		fmt.Fprintf(&sb, "fcmp.%s %s, %s = %s, %s", i.Cond, i.Pd1, i.Pd2, i.Fa, i.Fb)
	case OpSetF:
		fmt.Fprintf(&sb, "setf %s = %s", i.Fd, i.Ra)
	case OpGetF:
		fmt.Fprintf(&sb, "getf %s = %s", i.Rd, i.Fa)
	default:
		fmt.Fprintf(&sb, "%s ???", i.Op)
	}
	return sb.String()
}

// Format renders the whole program as assembly text. The output parses back
// to an equivalent program via Parse (instruction IDs are not serialized;
// they are reassigned in textual order on parse).
func Format(p *Program) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "program entry=%s\n", p.Entry)
	for _, f := range p.Funcs {
		fmt.Fprintf(&sb, "\nfunc %s formals=%d {\n", f.Name, f.NumFormals)
		for _, b := range f.Blocks {
			fmt.Fprintf(&sb, "%s:\n", b.Label)
			for _, in := range b.Instrs {
				fmt.Fprintf(&sb, "\t%s\n", formatInstr(in))
			}
		}
		sb.WriteString("}\n")
	}
	if p.Data.Len() > 0 {
		sb.WriteString("\ndata {\n")
		p.Data.Range(func(a, v uint64) { fmt.Fprintf(&sb, "\t0x%x: %d\n", a, v) })
		sb.WriteString("}\n")
	}
	return sb.String()
}
