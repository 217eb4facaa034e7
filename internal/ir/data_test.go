package ir_test

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/lift"
	"ssp/internal/sim/decode"
	"ssp/internal/workloads"
)

// view is everything an observer can read of a program's data: one word,
// the program's text, and its predecoded digest.
type view struct {
	word   uint64
	text   string
	digest [sha256.Size]byte
}

func viewOf(t *testing.T, p *ir.Program, addr uint64) view {
	t.Helper()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	return view{p.Data.Word(addr), ir.Format(p), decode.Predecode(img).Digest()}
}

// TestDataImageCopyOnWrite: Clone, Link, and the lifter share the program's
// sealed data image by pointer, and a SetWord on either side of a share
// copies it first — the other side's words, its text, and its digest stay
// exactly as they were, while the writer's digest moves.
func TestDataImageCopyOnWrite(t *testing.T) {
	addr := workloads.RandomProgram(1).Data.Addrs()[0]
	// Each route's share builds a second program that shares p's image.
	for _, route := range []struct {
		name  string
		share func(*ir.Program) *ir.Program
	}{
		{"clone", (*ir.Program).Clone},
		{"link", func(p *ir.Program) *ir.Program {
			img, err := ir.Link(p)
			if err != nil {
				t.Fatal(err)
			}
			if img.Data != p.Data {
				t.Fatal("Link copied the data image")
			}
			q, err := lift.Lift(img)
			if err != nil {
				t.Fatal(err)
			}
			return q
		}},
	} {
		for _, writeOriginal := range []bool{false, true} {
			p := workloads.RandomProgram(1)
			q := route.share(p)
			if q.Data != p.Data {
				t.Fatalf("%s: the two programs hold different data images", route.name)
			}
			writer, other := q, p
			if writeOriginal {
				writer, other = p, q
			}
			before, wrote := viewOf(t, other, addr), viewOf(t, writer, addr)
			writer.SetWord(addr, before.word+1)
			if writer.Data == other.Data {
				t.Fatalf("%s: SetWord wrote the shared image in place", route.name)
			}
			if after := viewOf(t, other, addr); after != before {
				t.Errorf("%s (original writes: %v): the other side changed: word %d -> %d, text equal %v, digest equal %v",
					route.name, writeOriginal, before.word, after.word, after.text == before.text, after.digest == before.digest)
			}
			if got := viewOf(t, writer, addr); got.word != before.word+1 || got.digest == wrote.digest {
				t.Errorf("%s (original writes: %v): the writer's word is %d and its digest moved: %v",
					route.name, writeOriginal, got.word, got.digest != wrote.digest)
			}
		}
	}
}

// TestDataImageWritesInPlaceUntilShared: a builder's SetWords land in one
// image, which a nil image starts; only sharing seals it.
func TestDataImageWritesInPlaceUntilShared(t *testing.T) {
	p := ir.NewProgram("main")
	if p.Data.Len() != 0 || p.Data.Word(8) != 0 || p.Data.Addrs() != nil {
		t.Fatal("a new program's data image is not empty")
	}
	p.SetWord(16, 2)
	d := p.Data
	p.SetWord(8, 1)
	if p.Data != d {
		t.Fatal("SetWord copied an unshared image")
	}
	if got := p.Data.Addrs(); len(got) != 2 || got[0] != 8 || got[1] != 16 || p.Data.Len() != 2 {
		t.Fatalf("Addrs = %v, Len = %d; want [8 16], 2", got, p.Data.Len())
	}
	p.Clone()
	p.SetWord(24, 3)
	if p.Data == d || d.Len() != 2 || p.Data.Len() != 3 {
		t.Fatal("SetWord after Clone did not copy the sealed image")
	}
}

// TestDataImageExplicitZero: a data word written as zero is a word the image
// holds, not an absent one: it counts in Len and prints back.
func TestDataImageExplicitZero(t *testing.T) {
	p, err := ir.Parse("program entry=main\nfunc main formals=0 {\nentry:\n\thalt\n}\ndata {\n\t0x2000: 0\n}\n")
	if err != nil {
		t.Fatal(err)
	}
	if n := p.Data.Len(); n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
	if text := ir.Format(p); !strings.Contains(text, "\t0x2000: 0\n") {
		t.Fatalf("the zero word did not print back:\n%s", text)
	}
}

// TestDataImageSum: the sum hashes the page encoding — each page's index and
// its 512 words, little-endian, in increasing page order — so it does not
// depend on the order words were written in, and any change to a word, an
// address, or the page set changes it.
func TestDataImageSum(t *testing.T) {
	image := func(words map[uint64]uint64, reverse bool) *ir.DataImage {
		addrs := make([]uint64, 0, len(words))
		for a := range words {
			addrs = append(addrs, a)
		}
		slices.Sort(addrs)
		if reverse {
			slices.Reverse(addrs)
		}
		p := ir.NewProgram("main")
		for _, a := range addrs {
			p.SetWord(a, words[a])
		}
		return p.Data
	}
	words := map[uint64]uint64{0x1000: 1, 0x1008: 2, 1 << 40: 3}
	var enc []byte
	for _, pg := range []struct{ idx, base uint64 }{{1, 0x1000}, {1 << 28, 1 << 40}} {
		enc = binary.LittleEndian.AppendUint64(enc, pg.idx)
		for a := pg.base; a < pg.base+4096; a += 8 {
			enc = binary.LittleEndian.AppendUint64(enc, words[a])
		}
	}
	base := image(words, false).Sum()
	if base != sha256.Sum256(enc) {
		t.Fatal("the sum is not the SHA-256 of the page encoding")
	}
	if image(words, true).Sum() != base {
		t.Fatal("the sum depends on the order the words were written in")
	}
	for i, v := range []map[uint64]uint64{
		{0x1000: 1, 0x1008: 3, 1 << 40: 3},            // a word
		{0x1000: 1, 0x1010: 2, 1 << 40: 3},            // an address in the page
		{0x1000: 1, 0x1008: 2, 1<<40 + 4096: 3},       // an outlier page index
		{0x1000: 1, 0x1008: 2, 1 << 40: 3, 0x9000: 0}, // an explicit zero page
	} {
		if image(v, false).Sum() == base {
			t.Errorf("variant %d sums like the original", i)
		}
	}
}

// TestParseAdmitsBuiltins: the parser's page cap admits the largest built-in
// image, treeadd's at paper scale, whole.
func TestParseAdmitsBuiltins(t *testing.T) {
	spec, err := workloads.ByName("treeadd.df")
	if err != nil {
		t.Fatal(err)
	}
	p, _ := spec.Build(spec.Scale)
	q, err := ir.Parse(ir.Format(p))
	if err != nil {
		t.Fatal(err)
	}
	if q.Data.Len() != p.Data.Len() || q.Data.Sum() != p.Data.Sum() {
		t.Fatalf("reparsed image holds %d words, want %d, or sums differently", q.Data.Len(), p.Data.Len())
	}
}
