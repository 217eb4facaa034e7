package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ssp/internal/cliutil/clitest"
	"ssp/internal/exp"
	"ssp/internal/profile"
	"ssp/internal/ssp"
)

// TestPinnedOutput: the profile bundle and the hot-block table are
// byte-identical to what sspprof printed when it profiled by hand, recorded
// from `sspprof -bench mcf -scale 1500 -tiny [-hot-blocks 10]` (mcf's test
// size on the test memory system, which -scale test names now). The table
// ranks linked blocks; its rows are those of the threaded core's blocks it
// once ranked, without their compiled-chain column.
func TestPinnedOutput(t *testing.T) {
	clitest.Pin(t, run, "sspprof_mcf", "-bench mcf -scale test")
	clitest.Pin(t, run, "sspprof_hot", "-bench mcf -scale test -hot-blocks 10")
}

func TestProfilePipeline(t *testing.T) {
	out := filepath.Join(t.TempDir(), "p.json")
	if err := run([]string{"-bench", "mcf", "-scale", "test", "-out", out}, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pr, err := profile.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Cycles == 0 || len(pr.Loads) == 0 {
		t.Fatalf("profile empty: cycles=%d loads=%d", pr.Cycles, len(pr.Loads))
	}
	if len(pr.DelinquentLoadsByRegion(0.9, 10, 0, func(int) string { return "" })) == 0 {
		t.Fatal("no delinquent loads in saved profile")
	}
}

func TestProfileErrors(t *testing.T) {
	if err := run([]string{"-bench", "nosuch", "-scale", "test"}, io.Discard, io.Discard); err == nil {
		t.Fatal("accepted unknown benchmark")
	}
	for _, scale := range []string{"1500", "-5", "tset"} { // not scale names
		if err := run([]string{"-bench", "mcf", "-scale", scale}, io.Discard, io.Discard); err == nil {
			t.Errorf("-scale %s: accepted", scale)
		}
	}
}

// TestReportsToolTargets: the loads sspprof reports are the ones the tool
// adapts (ssp.RankTargets, ranked per hot region), not a global ranking;
// on health the two differ.
func TestReportsToolTargets(t *testing.T) {
	var stderr strings.Builder
	if err := run([]string{"-bench", "health", "-scale", "test"}, io.Discard, &stderr); err != nil {
		t.Fatal(err)
	}
	orig, _, pr, _, err := exp.NewSuite(exp.ScaleTest).Original(context.Background(), "health", "")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(ssp.RankTargets(orig, pr, ssp.DefaultOptions()))
	if !strings.HasSuffix(strings.TrimSpace(stderr.String()), ": "+want) {
		t.Fatalf("sspprof reports %q, the tool targets %s", stderr.String(), want)
	}
	if global := fmt.Sprint(pr.DelinquentLoadsByRegion(0.9, 10, 0, func(int) string { return "" })); global == want {
		t.Fatalf("health's global ranking %s equals the per-region one: the test no longer tells them apart", global)
	}
}
