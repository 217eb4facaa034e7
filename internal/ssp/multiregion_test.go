package ssp

import (
	"math/rand"
	"strings"
	"testing"

	"ssp/internal/cfg"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/workloads"
)

// twoPhaseProgram has two separate hot loops with independent delinquent
// loads — exercising multiple slices in multiple regions, each with its own
// trigger and attachment (the shape the paper's multi-routine benchmarks
// have, which yields the 2-8 slice counts of Table 2).
func twoPhaseProgram(n int) (*ir.Program, uint64) {
	p := ir.NewProgram("main")
	r := rand.New(rand.NewSource(9))
	// Phase 1: arc-style strided scan with a pointer dereference.
	arcBase := uint64(0x100000)
	nodeBase := arcBase + uint64(n)*64 + 0x10000
	perm := r.Perm(n)
	var want uint64
	for i := 0; i < n; i++ {
		node := nodeBase + uint64(perm[i])*64
		p.SetWord(arcBase+uint64(i)*64+8, node)
		p.SetWord(node+16, uint64(i*3))
		want += uint64(i * 3)
	}
	// Phase 2: pointer-table walk over a different heap.
	tblBase := nodeBase + uint64(n)*64 + 0x100000
	recBase := tblBase + uint64(n)*8 + 0x10000
	perm2 := r.Perm(n)
	for i := 0; i < n; i++ {
		rec := recBase + uint64(perm2[i])*64
		p.SetWord(tblBase+uint64(i)*8, rec)
		p.SetWord(rec+8, uint64(i*5+1))
		want += uint64(i*5 + 1)
	}

	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(arcBase))
	e.MovI(15, int64(arcBase+uint64(n)*64))
	e.MovI(20, 0)
	l1 := fb.Block("phase1")
	l1.Nop()
	l1.Mov(16, 14)
	l1.Ld(17, 16, 8)
	l1.Ld(18, 17, 16)
	l1.Add(20, 20, 18)
	l1.AddI(14, 16, 64)
	l1.Cmp(ir.CondLT, 6, 7, 14, 15)
	l1.On(6).Br("phase1")
	mid := fb.Block("mid")
	mid.MovI(14, int64(tblBase))
	mid.MovI(15, int64(tblBase+uint64(n)*8))
	l2 := fb.Block("phase2")
	l2.Nop()
	l2.Ld(16, 14, 0)
	l2.Ld(17, 16, 8)
	l2.Add(20, 20, 17)
	l2.AddI(14, 14, 8)
	l2.Cmp(ir.CondLT, 6, 7, 14, 15)
	l2.On(6).Br("phase2")
	done := fb.Block("done")
	done.MovI(28, int64(workloads.ResultAddr))
	done.St(28, 0, 20)
	done.Halt()
	return p, want
}

// TestMultipleRegionsGetSeparateSlices is the table-driven portfolio suite:
// programs with 2, 3, and 4 hot regions must come out of the tool with one
// independent p-slice per region — separate regions, separate trigger sites,
// one chk.c each — while preserving the architectural answer and accounting
// for every targeted load.
func TestMultipleRegionsGetSeparateSlices(t *testing.T) {
	cases := []struct {
		name   string
		build  func() (*ir.Program, uint64)
		slices int
	}{
		{"twophase-handbuilt", func() (*ir.Program, uint64) { return twoPhaseProgram(900) }, 2},
		{"rand-2phase", func() (*ir.Program, uint64) { return workloads.RandomMulti(21001, 2, 900) }, 2},
		{"rand-3phase", func() (*ir.Program, uint64) { return workloads.RandomMulti(21002, 3, 900) }, 3},
		{"rand-4phase", func() (*ir.Program, uint64) { return workloads.RandomMulti(21003, 4, 960) }, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, want := tc.build()
			prof, err := profile.Collect(p, tinyConfig())
			if err != nil {
				t.Fatal(err)
			}
			enh, rep, err := Adapt(p, prof, DefaultOptions(), tc.name)
			if err != nil {
				t.Fatal(err)
			}
			if rep.NumSlices() != tc.slices {
				t.Fatalf("got %d slices, want %d (one per hot loop): %+v", rep.NumSlices(), tc.slices, rep.Slices)
			}
			regions := map[string]bool{}
			triggers := map[string]bool{}
			for _, s := range rep.Slices {
				regions[s.Region] = true
				triggers[s.Trigger] = true
				if s.Trigger == "" {
					t.Fatalf("slice in %s has no trigger site", s.Region)
				}
			}
			if len(regions) != tc.slices {
				t.Fatalf("slices share a region: %+v", rep.Slices)
			}
			if len(triggers) != tc.slices {
				t.Fatalf("slices share a trigger site: %+v", rep.Slices)
			}
			// One chk.c per slice, wired to its own stub.
			text := ir.Format(enh)
			if n := strings.Count(text, "chk.c ssp_stub_"); n != tc.slices {
				t.Fatalf("expected %d triggers, found %d:\n%s", tc.slices, n, text)
			}
			// Covered XOR skipped: every targeted load is accounted for.
			for _, id := range rep.DelinquentLoads {
				covered := rep.Covered(id)
				skipped := false
				for _, sk := range rep.Skipped {
					if sk.ID == id {
						skipped = true
					}
				}
				if covered == skipped {
					t.Fatalf("load %d: covered=%v skipped=%v, want exactly one", id, covered, skipped)
				}
			}
			if err := AnalyzeSafety(enh, DefaultSafetyCeiling).Err(); err != nil {
				t.Fatal(err)
			}
			got, res := runChecksum(t, enh, tinyConfig())
			if got != want {
				t.Fatalf("checksum = %d, want %d", got, want)
			}
			_, base := runChecksum(t, p, tinyConfig())
			if sp := float64(base.Cycles) / float64(res.Cycles); sp < 1.1 {
				t.Fatalf("portfolio speedup = %.2f, want >= 1.1", sp)
			}
		})
	}
}

// TestSharedChainSlicesMerge pins the §3.4.1 dedup rule ("different slices
// are combined if they share nodes in the dependence graph") across region
// groups: the inner list walk's chain includes the outer loop's head load,
// so the two per-region plans must merge into one slice with one trigger
// covering both delinquent loads, not two slices racing over the same chain.
func TestSharedChainSlicesMerge(t *testing.T) {
	p, want := nestedListProgram(500, 3)
	prof, err := profile.Collect(p, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := DefaultOptions()
	dels := RankTargets(p, prof, opt)
	if len(dels) < 2 {
		t.Fatalf("want >= 2 delinquent loads to exercise merging, got %v", dels)
	}
	// The targets must start out in different region groups — otherwise
	// this degenerates to the ordinary same-region combine.
	fo, err := cfg.BuildForest(p)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, id := range dels {
		fn, blk, _ := p.InstrByID(id)
		r := fo.ByFunc[fn.Name].Innermost(blk.Index)
		if r.Kind == cfg.RegionLoopBody && r.Parent != nil {
			r = r.Parent
		}
		keys[r.String()] = true
	}
	if len(keys) < 2 {
		t.Fatalf("delinquent loads %v all rank into %v; the merge test needs two region groups", dels, keys)
	}
	enh, rep, err := Adapt(p, prof, opt, "nested")
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumSlices() != 1 {
		t.Fatalf("shared-chain plans did not merge: %d slices %+v", rep.NumSlices(), rep.Slices)
	}
	sl := rep.Slices[0]
	if len(sl.Targets) < 2 {
		t.Fatalf("merged slice covers %v, want both chain loads", sl.Targets)
	}
	text := ir.Format(enh)
	if n := strings.Count(text, "chk.c ssp_stub_"); n != 1 {
		t.Fatalf("merged portfolio should have one trigger, found %d", n)
	}
	got, _ := runChecksum(t, enh, tinyConfig())
	if got != want {
		t.Fatalf("checksum = %d, want %d", got, want)
	}
}

// nestedListProgram builds an outer loop walking a pointer table whose
// entries head short linked lists walked by an inner loop: the inner chain
// hangs off the outer head load, so per-region slice plans share dependence
// nodes.
func nestedListProgram(n, listLen int) (*ir.Program, uint64) {
	p := ir.NewProgram("main")
	r := rand.New(rand.NewSource(77))
	tbl := uint64(0x100000)
	heap := tbl + uint64(n)*8 + 0x10000
	perm := r.Perm(n * listLen)
	addr := func(k int) uint64 { return heap + uint64(perm[k])*64 }
	var want uint64
	for i := 0; i < n; i++ {
		p.SetWord(tbl+uint64(i)*8, addr(i*listLen))
		for j := 0; j < listLen; j++ {
			node := addr(i*listLen + j)
			val := uint64(i*7 + j*3 + 1)
			p.SetWord(node+8, val)
			want += val
			if j+1 < listLen {
				p.SetWord(node, addr(i*listLen+j+1))
			} else {
				p.SetWord(node, 0)
			}
		}
	}
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(tbl))
	e.MovI(15, int64(tbl+uint64(n)*8))
	e.MovI(20, 0)
	outer := fb.Block("outer")
	outer.Nop()
	outer.Ld(16, 14, 0) // list head: delinquent
	inner := fb.Block("inner")
	inner.Nop()
	inner.Ld(17, 16, 8) // node value
	inner.Add(20, 20, 17)
	inner.Ld(16, 16, 0) // next pointer: delinquent, chained off the head
	inner.CmpI(ir.CondNE, 6, 7, 16, 0)
	inner.On(6).Br("inner")
	next := fb.Block("next")
	next.AddI(14, 14, 8)
	next.Cmp(ir.CondLT, 6, 7, 14, 15)
	next.On(6).Br("outer")
	done := fb.Block("done")
	done.MovI(28, int64(workloads.ResultAddr))
	done.St(28, 0, 20)
	done.Halt()
	return p, want
}
