package main

import (
	"io"
	"strings"
	"testing"

	"ssp/internal/cliutil/clitest"
)

// checkDot applies structural DOT validation: a digraph header, balanced
// braces, and at least one edge — enough to catch an emitter regression
// without depending on a graphviz binary the CI image may not have.
func checkDot(t *testing.T, out string) {
	t.Helper()
	if !strings.HasPrefix(out, "digraph ") {
		t.Fatalf("output does not start with a digraph header:\n%.200s", out)
	}
	if o, c := strings.Count(out, "{"), strings.Count(out, "}"); o == 0 || o != c {
		t.Fatalf("unbalanced braces (%d open, %d close):\n%.200s", o, c, out)
	}
	if !strings.Contains(out, "->") {
		t.Fatalf("no edges in output:\n%.200s", out)
	}
}

// TestPinnedOutput: the renderings are byte-identical to what sspdot
// printed when it built, profiled and adapted programs by hand, recorded
// from `sspdot -bench mcf.multi -scale 1100 -what slices|cfg` (the
// benchmark's test size; slices were profiled on the test memory system,
// which -scale test names now).
func TestPinnedOutput(t *testing.T) {
	clitest.Pin(t, run, "sspdot_slices", "-bench mcf.multi -scale test -what slices")
	clitest.Pin(t, run, "sspdot_cfg", "-bench mcf.multi -scale test -what cfg")
}

// TestRunBenchmarkGraphs renders both graph kinds for a built-in benchmark.
func TestRunBenchmarkGraphs(t *testing.T) {
	for _, what := range []string{"cfg", "dep"} {
		var out strings.Builder
		if err := run([]string{"-bench", "mcf", "-scale", "test", "-what", what}, &out, io.Discard); err != nil {
			t.Fatalf("-what %s: %v", what, err)
		}
		checkDot(t, out.String())
	}
	for _, scale := range []string{"1500", "-5", "tset"} { // not scale names
		if err := run([]string{"-bench", "mcf", "-scale", scale}, io.Discard, io.Discard); err == nil {
			t.Errorf("-scale %s: accepted", scale)
		}
	}
}

// TestRunAdaptedBinary renders an SSP-adapted binary read as textual
// assembly (-in; sspgen's pinned output for mcf.ssp): the rendered graph
// must show the attachment structure the tool injected — the stub and the
// p-slice blocks.
func TestRunAdaptedBinary(t *testing.T) {
	path := clitest.Dir + "/sspgen_file.stdout"
	var out strings.Builder
	if err := run([]string{"-in", path}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	checkDot(t, out.String())
	for _, label := range []string{"ssp_stub_0", "ssp_slice_0"} {
		if !strings.Contains(out.String(), label) {
			t.Errorf("adapted CFG is missing the %s block", label)
		}
	}

	// Dependence graph of the injected slice body.
	var dout strings.Builder
	if err := run([]string{"-in", path, "-what", "dep", "-block", "ssp_slice_0"}, &dout, io.Discard); err != nil {
		t.Fatal(err)
	}
	checkDot(t, dout.String())

	// Error paths surface as errors, not DOT on stdout.
	if err := run([]string{"-in", path, "-func", "nosuchfunc"}, &out, io.Discard); err == nil {
		t.Error("run accepted an unknown function")
	}
	if err := run([]string{"-in", path, "-what", "bogus"}, &out, io.Discard); err == nil {
		t.Error("run accepted an unknown -what")
	}
}

// TestRunSlicePortfolio renders the slice portfolio of a multi-phase
// benchmark: one cluster per independent p-slice, each rooted at its own
// trigger site, with the spawn edges that arm the precomputation.
func TestRunSlicePortfolio(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-bench", "mcf.multi", "-scale", "test", "-what", "slices"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	dot := out.String()
	checkDot(t, dot)
	if n := strings.Count(dot, "subgraph cluster_slice_"); n < 2 {
		t.Fatalf("multi-phase benchmark rendered %d slice clusters, want >= 2:\n%s", n, dot)
	}
	if !strings.Contains(dot, "spawn") {
		t.Fatalf("no spawn edges in portfolio:\n%s", dot)
	}
	// Each cluster must carry its own trigger site, and the sites must
	// differ: independent slices are armed from different blocks.
	trigs := map[string]bool{}
	for _, line := range strings.Split(dot, "\n") {
		if i := strings.Index(line, "trigger main."); i >= 0 {
			rest := line[i+len("trigger "):]
			if j := strings.IndexAny(rest, "\\\""); j >= 0 {
				rest = rest[:j]
			}
			trigs[rest] = true
		}
	}
	if len(trigs) < 2 {
		t.Fatalf("want >= 2 distinct trigger sites, got %v in:\n%s", trigs, dot)
	}
}
