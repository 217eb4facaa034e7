package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssp/internal/cliutil/clitest"
	"ssp/internal/exp"
	"ssp/internal/sim"
	"ssp/internal/tune"
)

func TestParseRejectsBadFlags(t *testing.T) {
	cases := []struct {
		name                      string
		bench, model, scale, grid string
		rounds, workers           int
		eps                       float64
	}{
		{"unknown bench", "nope", "in-order", "test", "quick", 2, 1, 0.02},
		{"empty bench list", " , ", "in-order", "test", "quick", 2, 1, 0.02},
		{"unknown model", "mcf", "risc-v", "test", "quick", 2, 1, 0.02},
		{"unknown scale", "mcf", "in-order", "huge", "quick", 2, 1, 0.02},
		{"unknown grid", "mcf", "in-order", "test", "dense", 2, 1, 0.02},
		{"zero rounds", "mcf", "in-order", "test", "quick", 0, 1, 0.02},
		{"zero workers", "mcf", "in-order", "test", "quick", 2, 0, 0.02},
		{"negative eps", "mcf", "in-order", "test", "quick", 2, 1, -0.01},
		{"NaN eps", "mcf", "in-order", "test", "quick", 2, 1, math.NaN()},
	}
	for _, c := range cases {
		if _, err := parse(c.bench, c.model, c.scale, c.rounds, c.eps, c.grid, c.workers); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	o, err := parse("mcf, health", "ooo", "paper", 3, 0.02, "full", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.benches) != 2 || o.benches[0] != "mcf" || o.benches[1] != "health" {
		t.Fatalf("benches = %v", o.benches)
	}
	if o.model != sim.OOO || o.scale != exp.ScalePaper {
		t.Fatalf("model %v scale %v", o.model, o.scale)
	}
	if len(o.grid) != len(tune.FullGrid()) {
		t.Fatalf("grid has %d points", len(o.grid))
	}
	if o.params.MaxRounds != 3 || o.workers != 4 {
		t.Fatalf("params %+v workers %d", o.params, o.workers)
	}
}

// TestRunSmoke drives the whole tuner through run() at test scale and checks
// both output paths: the human table on stdout and the JSON report on disk.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "tune.json")
	o := options{
		benches:          []string{"mcf"},
		model:            sim.InOrder,
		scale:            exp.ScaleTest,
		params:           tune.Params{MaxRounds: 2, Epsilon: 0.02},
		grid:             tune.QuickGrid(),
		workers:          2,
		outFile:          out,
		requireConverged: true,
		quiet:            true,
	}
	var table strings.Builder
	if err := run(o, &table, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(table.String(), "mcf on in-order (test scale)") {
		t.Fatalf("table output missing summary line:\n%s", table.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 {
		t.Fatalf("report has %d results", len(rep.Results))
	}
	res := rep.Results[0]
	if res.Bench != "mcf" || res.Best == nil {
		t.Fatalf("result %+v", res)
	}
	if res.Best.Best < res.OneShot {
		t.Fatalf("tuned %.3fx below one-shot %.3fx", res.Best.Best, res.OneShot)
	}
	if !res.Best.Converged {
		t.Fatal("run returned nil but best candidate not converged")
	}

	// The JSON output path must emit the same envelope to the writer.
	o.outFile, o.jsonOut = "", true
	var buf strings.Builder
	if err := run(o, &buf, io.Discard); err != nil {
		t.Fatal(err)
	}
	var rep2 report
	if err := json.Unmarshal([]byte(buf.String()), &rep2); err != nil {
		t.Fatalf("stdout JSON: %v", err)
	}
	if len(rep2.Results) != 1 || rep2.Results[0].Best.Label != res.Best.Label {
		t.Fatalf("stdout report disagrees with file report: %+v", rep2.Results)
	}
}

// TestPaperTune pins `ssptune -bench mcf,rand.2p -rounds 3 -grid full -json`
// at paper scale, the tune-paper benchmark's grid, byte for byte; -quiet
// keeps stderr empty, since the progress lines interleave in worker order.
// It runs only with SSP_EXHIBITS=1 (make exhibits-check).
func TestPaperTune(t *testing.T) {
	if os.Getenv("SSP_EXHIBITS") == "" {
		t.Skip("set SSP_EXHIBITS=1 to check the paper-scale exhibits (make exhibits-check)")
	}
	cli := func(args []string, stdout, stderr io.Writer) error {
		o, err := parseArgs(args)
		if err != nil {
			return err
		}
		return run(o, stdout, stderr)
	}
	clitest.Pin(t, cli, "ssptune_paper", "-bench mcf,rand.2p -rounds 3 -grid full -json -quiet")
}
