package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssp/internal/cliutil/clitest"
	"ssp/internal/ir"
)

// TestPinnedOutput: the adapted binary and the report on stderr are
// byte-identical to what sspgen printed when it profiled and adapted by
// hand, recorded from `sspgen -bench mcf.multi -scale 1100 -tiny` (the
// benchmark's test size on the test memory system, which -scale test names
// now) and from the file hand-off `sspgen -in mcf.ssp -profile
// mcf.prof.json`, whose profile sspprof wrote for that file.
func TestPinnedOutput(t *testing.T) {
	clitest.Pin(t, run, "sspgen_multi", "-bench mcf.multi -scale test")
	clitest.Pin(t, run, "sspgen_file", "-in "+clitest.Dir+"/mcf.ssp -profile "+clitest.Dir+"/mcf.prof.json")
}

// TestRunFilePipeline profiles and adapts an assembly file through the
// suite: the output carries the attachments and parses back.
func TestRunFilePipeline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "mcf.enh.ssp")
	if err := run([]string{"-in", clitest.Dir + "/mcf.ssp", "-scale", "test", "-out", out}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "chk.c ssp_stub_") {
		t.Fatal("output lacks trigger")
	}
	enh, err := ir.Parse(string(text))
	if err != nil {
		t.Fatalf("output does not parse: %v", err)
	}
	if enh.FuncByName("main") == nil {
		t.Fatal("output lost main")
	}
}

func TestRunErrors(t *testing.T) {
	for _, args := range []string{
		"-scale test",                               // neither -in nor -bench
		"-in /no/such/file.ssp -scale test",         // missing input
		"-bench mcf -profile /no/such/profile.json", // missing profile
	} {
		if err := run(strings.Fields(args), io.Discard, io.Discard); err == nil {
			t.Errorf("%s: accepted", args)
		}
	}
	for _, scale := range []string{"1500", "-5", "tset"} { // not scale names
		if err := run([]string{"-bench", "mcf", "-scale", scale}, io.Discard, io.Discard); err == nil {
			t.Errorf("-scale %s: accepted", scale)
		}
	}
}
