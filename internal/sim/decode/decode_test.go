package decode

import (
	"encoding/hex"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"ssp/internal/ir"
	"ssp/internal/workloads"
)

func predecode(t *testing.T, p *ir.Program) *Program {
	t.Helper()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return Predecode(img)
}

// withCode returns a Program over p's image with its own copy of the decoded
// table, for perturbing one instruction.
func withCode(p *Program) *Program {
	return &Program{Img: p.Img, Code: append([]Decoded(nil), p.Code...), MaxID: p.MaxID}
}

// TestDigestIsContent: independently built, cloned, and relabelled copies of
// one program digest alike — the digest names what runs, not how it was
// produced — while another program does not.
func TestDigestIsContent(t *testing.T) {
	want := predecode(t, workloads.RandomProgram(3)).Digest()
	if got := predecode(t, workloads.RandomProgram(3)).Digest(); got != want {
		t.Fatal("two builds of one program digest differently")
	}
	clone := workloads.RandomProgram(3).Clone()
	if got := predecode(t, clone).Digest(); got != want {
		t.Fatal("a clone digests differently")
	}
	// Branch targets resolve to PCs, so label names are not content.
	for _, f := range clone.Funcs {
		for _, b := range f.Blocks {
			old := b.Label
			b.Label = "renamed_" + old
			for _, g := range f.Blocks {
				for _, in := range g.Instrs {
					if in.Target == old {
						in.Target = b.Label
					}
				}
			}
		}
	}
	if got := predecode(t, clone).Digest(); got != want {
		t.Fatal("relabelling the blocks changed the digest")
	}
	if predecode(t, workloads.RandomProgram(4)).Digest() == want {
		t.Fatal("two different programs share a digest")
	}
}

// TestDigestPinned pins one digest byte for byte: simulation cells are keyed
// on it, so a change to the code encoding, or the trap record Exec appends
// leaking into it, re-keys every cached result.
func TestDigestPinned(t *testing.T) {
	const want = "aae79225ed687e08f7c3e82083cf2ba906b5ffdf5d971049725ebe4e14544f45"
	if got := predecode(t, workloads.RandomProgram(3)).Digest(); hex.EncodeToString(got[:]) != want {
		t.Fatalf("RandomProgram(3) digest %x, pinned %s", got, want)
	}
}

// TestExecEndsInTrap: Exec is Code followed by one trap record.
func TestExecEndsInTrap(t *testing.T) {
	p := predecode(t, workloads.RandomProgram(3))
	exec := p.Exec()
	if len(exec) != len(p.Code)+1 || &exec[0] != &p.Code[0] || exec[len(p.Code)].H != HTrap {
		t.Fatalf("Exec has %d records (code %d), last handler %v", len(exec), len(p.Code), exec[len(exec)-1].H)
	}
}

// TestDigestCoversEveryField perturbs every field of one decoded instruction
// in turn, plus the entry PC, the block partition, and one data word: each
// must move the digest, so a field added to Decoded cannot be left out of
// the simulation-cell key unnoticed.
func TestDigestCoversEveryField(t *testing.T) {
	p := predecode(t, workloads.RandomProgram(5))
	base := p.Digest()
	// An instruction that reads and writes, so the first use and the first
	// def are both content.
	pc := len(p.Code) / 2
	for p.Code[pc].NU == 0 || p.Code[pc].ND == 0 {
		pc++
	}
	typ := reflect.TypeOf(Decoded{})
	for i := 0; i < typ.NumField(); i++ {
		q := withCode(p)
		f := reflect.ValueOf(&q.Code[pc]).Elem().Field(i)
		switch f.Kind() {
		case reflect.Uint8, reflect.Uint16:
			f.SetUint(f.Uint() + 1)
		case reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Array:
			f.Index(0).SetUint(f.Index(0).Uint() + 1)
		default:
			t.Fatalf("Decoded.%s: unhandled kind %s", typ.Field(i).Name, f.Kind())
		}
		if q.Digest() == base {
			t.Errorf("perturbing Decoded.%s left the digest unchanged", typ.Field(i).Name)
		}
	}

	img := *p.Img
	img.Entry++
	if (&Program{Img: &img, Code: p.Code}).Digest() == base {
		t.Error("moving the entry PC left the digest unchanged")
	}
	img = *p.Img
	img.BlockOf = append([]int(nil), p.Img.BlockOf...)
	img.BlockOf[pc] = -1 // pc now starts a block of its own
	if (&Program{Img: &img, Code: p.Code}).Digest() == base {
		t.Error("splitting a block left the digest unchanged")
	}

	prog := workloads.RandomProgram(5)
	addrs := prog.Data.Addrs()
	a := addrs[len(addrs)/2]
	prog.SetWord(a, prog.Data.Word(a)+1)
	if predecode(t, prog).Digest() == base {
		t.Error("changing one data word left the digest unchanged")
	}
}

// TestPredecodeSharesDataImage: programs that share one data image — an
// original, its clone, and a relinked copy — predecode to one shared page
// table, and the digest's data half is computed once per image: a program
// whose image differs gets a page table of its own.
func TestPredecodeSharesDataImage(t *testing.T) {
	p := workloads.RandomProgram(6)
	first := predecode(t, p)
	for _, q := range []*ir.Program{p, p.Clone(), p.Clone().Clone()} {
		if dp := predecode(t, q); dp.Img.Data != first.Img.Data {
			t.Fatal("two predecodes of one data image hold two page tables")
		}
	}
	q := p.Clone()
	q.SetWord(0x8, 1)
	if predecode(t, q).Img.Data == first.Img.Data {
		t.Fatal("a written copy shares the original's page table")
	}
}

// TestUsesBoundedByMaxUses pins the decode-time invariants the fixed-size
// operand arrays rely on: for every opcode, an instruction with a
// non-trivial qualifying predicate and every operand field set to a real
// register (the most AppendUses and AppendDefs can yield for that opcode)
// reads at most MaxUses and writes at most MaxDefs locations, and both
// bounds are tight. Every built-in workload and a range of random programs
// then decode within them, into records of at most 64 bytes.
func TestUsesBoundedByMaxUses(t *testing.T) {
	mostUses, mostDefs := 0, 0
	for op := ir.Op(0); op < ir.NumOps; op++ {
		in := ir.Instr{Op: op, Qp: 5, Rd: 3, Ra: 4, Rb: 6, Pd1: 7, Pd2: 8, Bd: 1, Bs: 2, Fd: 10, Fa: 11, Fb: 12, Fc: 13, PostInc: 8}
		n := len(in.AppendUses(nil))
		if n > MaxUses {
			t.Errorf("%v reads %d locations, more than MaxUses=%d", op, n, MaxUses)
		}
		mostUses = max(mostUses, n)
		n = len(in.AppendDefs(nil))
		if n > MaxDefs {
			t.Errorf("%v writes %d locations, more than MaxDefs=%d", op, n, MaxDefs)
		}
		mostDefs = max(mostDefs, n)
	}
	if mostUses != MaxUses {
		t.Errorf("widest opcode reads %d locations; MaxUses=%d is not tight", mostUses, MaxUses)
	}
	if mostDefs != MaxDefs {
		t.Errorf("widest opcode writes %d locations; MaxDefs=%d is not tight", mostDefs, MaxDefs)
	}
	if size := unsafe.Sizeof(Decoded{}); size > 64 {
		t.Errorf("Decoded is %d bytes, more than one 64-byte line", size)
	}
	var progs []*ir.Program
	for _, spec := range workloads.All() {
		p, _ := spec.Build(spec.TestScale)
		progs = append(progs, p)
	}
	for seed := int64(0); seed < 16; seed++ {
		progs = append(progs, workloads.RandomProgram(seed))
	}
	for i, p := range progs {
		dp := predecode(t, p)
		for pc := range dp.Code {
			d := &dp.Code[pc]
			in := &dp.Img.Code[pc].I
			if uses := in.AppendUses(nil); !slices.Equal(d.Uses[:d.NU], uses) {
				t.Fatalf("program %d pc %d: uses %v, want %v", i, pc, d.Uses[:d.NU], uses)
			}
			if defs := in.AppendDefs(nil); !slices.Equal(d.Defs[:d.ND], defs) {
				t.Fatalf("program %d pc %d: defs %v, want %v", i, pc, d.Defs[:d.ND], defs)
			}
		}
	}
}
