package ir_test

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim"
)

// corpus drives the checked-in assembly programs end to end: parse, format
// round-trip, link, run on both machine models, and compare the architected
// result. The corpus doubles as documentation of the textual ISA.
var corpus = []struct {
	file string
	addr uint64
	want uint64
}{
	{"figure3.ssp", 0x2000, 10},
	{"ssp_attachment.ssp", 0x2000, 26},
	{"fp_kernel.ssp", 0x2000, math.Float64bits(44.0)},
}

func TestAssemblyCorpus(t *testing.T) {
	for _, c := range corpus {
		c := c
		t.Run(c.file, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join("testdata", c.file))
			if err != nil {
				t.Fatal(err)
			}
			p, err := ir.Parse(string(src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			// Round trip.
			text := ir.Format(p)
			if _, err := ir.Parse(text); err != nil {
				t.Fatalf("re-parse: %v\n%s", err, text)
			}
			img, err := ir.Link(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, model := range []sim.Model{sim.InOrder, sim.OOO} {
				var cfg sim.Config
				if model == sim.InOrder {
					cfg = sim.DefaultInOrder()
				} else {
					cfg = sim.DefaultOOO()
				}
				m := sim.New(cfg, img)
				res, err := m.Run()
				if err != nil || res.TimedOut {
					t.Fatalf("%v: run: %v", model, err)
				}
				if got := m.Mem.Load(c.addr); got != c.want {
					t.Fatalf("%v: [%#x] = %#x, want %#x", model, c.addr, got, c.want)
				}
			}
		})
	}
}

func TestCorpusAttachmentSpawns(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "ssp_attachment.ssp"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.DefaultInOrder()
	cfg.SpawnCooldown = 0
	res, err := sim.New(cfg, img).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ChkTaken == 0 || res.Spawns == 0 {
		t.Fatalf("hand-written attachment never spawned: %+v", res)
	}
}

// TestAllOpcodesSeed checks that the fuzz seed all_opcodes.ssp stays
// complete: it parses, links, and uses every opcode.
func TestAllOpcodesSeed(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("testdata", "all_opcodes.ssp"))
	if err != nil {
		t.Fatal(err)
	}
	p, err := ir.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.Link(p); err != nil {
		t.Fatal(err)
	}
	seen := map[ir.Op]bool{}
	for _, f := range p.Funcs {
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) { seen[in.Op] = true })
	}
	for op := ir.Op(0); op < ir.NumOps; op++ {
		if !seen[op] {
			t.Errorf("all_opcodes.ssp never uses %s", op)
		}
	}
}
