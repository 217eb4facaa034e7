package ir_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ssp/internal/ir"
)

// FuzzParseAsmRoundTrip asserts the textual ISA's core contract over
// arbitrary input: whatever Parse accepts, Format must print back in a form
// Parse accepts again, the reparse must equal the first parse field by field
// (instruction IDs aside), and the printed form must be a fixed point
// (printing the reparse yields the same text). Link may reject a parseable
// program — undefined labels, missing main — but must never panic. The
// corpus programs (all_opcodes.ssp uses every mnemonic and operand form) and
// a few hand-written fragments seed the mutator; go test runs the saved
// corpus as regression inputs, and `go test -fuzz=FuzzParseAsmRoundTrip`
// explores from there.
func FuzzParseAsmRoundTrip(f *testing.F) {
	for _, file := range []string{"figure3.ssp", "ssp_attachment.ssp", "fp_kernel.ssp", "all_opcodes.ssp"} {
		src, err := os.ReadFile(filepath.Join("testdata", file))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("program entry=main\nfunc main formals=0 {\nentry:\n\thalt\n}\n")
	f.Add("program entry=main\nfunc main formals=0 {\nentry:\n\tmovi r1 = 7\n\t(p1) add r2 = r1, r1\n\tst8 [r2+0] = r1\n\thalt\n}\n")
	f.Add("program entry=main\nfunc main formals=0 {\nL:\n\tld8 r3 = [r4+8], 16\n\tchk.c stub\n\tbr L\nstub:\n\tliw [0] = r3\n\tspawn slice\n\thalt\nslice:\n\tlir r40 = [0]\n\tlfetch [r40+16]\n\tkill\n}\ndata {\n\t0x2000: 7\n}\n")
	f.Add("# comment\nprogram entry=f\nfunc f formals=1 {\nb:\n\tfadd f2 = f3, f4\n\tret b0\n}\n")
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ir.Parse(src)
		if err != nil {
			return // rejecting garbage is fine; only accepted input has obligations
		}
		text := ir.Format(p)
		p2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("formatted output does not reparse: %v\ninput:\n%s\nformatted:\n%s", err, src, text)
		}
		if d := diffPrograms(p, p2); d != "" {
			t.Fatalf("reparse differs from the first parse: %s\ninput:\n%s\nformatted:\n%s", d, src, text)
		}
		if text2 := ir.Format(p2); text2 != text {
			t.Fatalf("format is not a fixed point\nfirst:\n%s\nsecond:\n%s", text, text2)
		}
		// Link rejects incomplete programs with an error, never a panic.
		_, _ = ir.Link(p)
	})
}

// diffPrograms compares two programs field by field, instruction IDs aside,
// and describes the first difference ("" if none).
func diffPrograms(a, b *ir.Program) string {
	if a.Entry != b.Entry {
		return fmt.Sprintf("entry %q vs %q", a.Entry, b.Entry)
	}
	if len(a.Funcs) != len(b.Funcs) {
		return fmt.Sprintf("%d vs %d functions", len(a.Funcs), len(b.Funcs))
	}
	for fi, fa := range a.Funcs {
		fb := b.Funcs[fi]
		if fa.Name != fb.Name || fa.NumFormals != fb.NumFormals || len(fa.Blocks) != len(fb.Blocks) {
			return fmt.Sprintf("function %d: %s formals=%d blocks=%d vs %s formals=%d blocks=%d",
				fi, fa.Name, fa.NumFormals, len(fa.Blocks), fb.Name, fb.NumFormals, len(fb.Blocks))
		}
		for bi, ba := range fa.Blocks {
			bb := fb.Blocks[bi]
			if ba.Label != bb.Label || len(ba.Instrs) != len(bb.Instrs) {
				return fmt.Sprintf("%s block %d: %s (%d instrs) vs %s (%d instrs)",
					fa.Name, bi, ba.Label, len(ba.Instrs), bb.Label, len(bb.Instrs))
			}
			for k, ia := range ba.Instrs {
				x, y := *ia, *bb.Instrs[k]
				x.ID, y.ID = 0, 0
				if !reflect.DeepEqual(x, y) {
					return fmt.Sprintf("%s/%s[%d]: %+v vs %+v", fa.Name, ba.Label, k, x, y)
				}
			}
		}
	}
	type word struct{ a, v uint64 }
	var wa, wb []word
	a.Data.Range(func(addr, v uint64) { wa = append(wa, word{addr, v}) })
	b.Data.Range(func(addr, v uint64) { wb = append(wb, word{addr, v}) })
	if !reflect.DeepEqual(wa, wb) {
		return fmt.Sprintf("data %v vs %v", wa, wb)
	}
	return ""
}
