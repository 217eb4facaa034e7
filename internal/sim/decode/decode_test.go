package decode

import (
	"reflect"
	"testing"

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

// withCode returns a Program over p's image and memory with its own copy of
// the decoded table, for perturbing one instruction.
func withCode(p *Program) *Program {
	return &Program{Img: p.Img, Code: append([]Decoded(nil), p.Code...), Mem: p.Mem, MaxID: p.MaxID}
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

// TestDigestCoversEveryField perturbs every field of one decoded instruction
// in turn, plus the entry PC, the block partition, and one data word: each
// must move the digest, so a field added to Decoded cannot be left out of
// the simulation-cell key unnoticed.
func TestDigestCoversEveryField(t *testing.T) {
	p := predecode(t, workloads.RandomProgram(5))
	base := p.Digest()
	pc := len(p.Code) / 2
	typ := reflect.TypeOf(Decoded{})
	for i := 0; i < typ.NumField(); i++ {
		q := withCode(p)
		f := reflect.ValueOf(&q.Code[pc]).Elem().Field(i)
		switch f.Kind() {
		case reflect.Uint8, reflect.Uint16:
			f.SetUint(f.Uint() + 1)
		case reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Slice:
			grown := reflect.AppendSlice(reflect.MakeSlice(f.Type(), 0, f.Len()+1), f)
			f.Set(reflect.Append(grown, reflect.Zero(f.Type().Elem())))
		default:
			t.Fatalf("Decoded.%s: unhandled kind %s", typ.Field(i).Name, f.Kind())
		}
		if q.Digest() == base {
			t.Errorf("perturbing Decoded.%s left the digest unchanged", typ.Field(i).Name)
		}
	}

	img := *p.Img
	img.Entry++
	if (&Program{Img: &img, Code: p.Code, Mem: p.Mem}).Digest() == base {
		t.Error("moving the entry PC left the digest unchanged")
	}
	img = *p.Img
	img.BlockOf = append([]int(nil), p.Img.BlockOf...)
	img.BlockOf[pc] = -1 // pc now starts a block of its own
	if (&Program{Img: &img, Code: p.Code, Mem: p.Mem}).Digest() == base {
		t.Error("splitting a block left the digest unchanged")
	}

	prog := workloads.RandomProgram(5)
	addrs := prog.SortedDataAddrs()
	prog.SetWord(addrs[len(addrs)/2], prog.Data[addrs[len(addrs)/2]]+1)
	if predecode(t, prog).Digest() == base {
		t.Error("changing one data word left the digest unchanged")
	}
}
