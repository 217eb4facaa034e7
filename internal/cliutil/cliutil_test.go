package cliutil

import (
	"os"
	"path/filepath"
	"testing"

	"ssp/internal/exp"
	"ssp/internal/ir"
)

func TestReadInputBench(t *testing.T) {
	in, err := ReadInput("", "mcf", "test")
	if err != nil {
		t.Fatal(err)
	}
	if in.Bench != "mcf" || in.Src != "" || in.Scale != exp.ScaleTest {
		t.Fatalf("input %+v", in)
	}
	p, err := in.Load()
	if err != nil {
		t.Fatal(err)
	}
	// The loader sizes a benchmark as the suite does.
	want, _, err := exp.Build("mcf", exp.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	if ir.Format(p) != ir.Format(want) {
		t.Fatal("loaded benchmark differs from exp.Build's at the same scale")
	}
	if _, err := (Input{Bench: "nosuch"}).Load(); err == nil {
		t.Fatal("loaded an unknown benchmark")
	}
}

func TestReadInputFile(t *testing.T) {
	p, _, err := exp.Build("mcf", exp.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.ssp")
	if err := os.WriteFile(path, []byte(ir.Format(p)), 0o644); err != nil {
		t.Fatal(err)
	}
	in, err := ReadInput(path, "", "paper")
	if err != nil {
		t.Fatal(err)
	}
	if in.Src != ir.Format(p) || in.Scale != exp.ScalePaper {
		t.Fatalf("file input: scale %v, %d bytes of source", in.Scale, len(in.Src))
	}
	q, err := in.Load()
	if err != nil {
		t.Fatal(err)
	}
	if q.NumInstrs() != p.NumInstrs() {
		t.Fatalf("file round trip: %d instrs vs %d", q.NumInstrs(), p.NumInstrs())
	}
}

func TestReadInputErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.ssp")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ in, bench, scale string }{
		{empty, "", "test"},                   // no program in the file
		{"", "", "test"},                      // neither -in nor -bench
		{"x.ssp", "mcf", "test"},              // both
		{"/nonexistent/file.ssp", "", "test"}, // missing file
		{"", "mcf", "1500"},                   // an element count is not a scale
		{"", "mcf", "-5"},
		{"", "mcf", "tset"},
	} {
		if _, err := ReadInput(tc.in, tc.bench, tc.scale); err == nil {
			t.Errorf("ReadInput(%q, %q, %q) accepted", tc.in, tc.bench, tc.scale)
		}
	}
}
