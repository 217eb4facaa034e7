package main

import (
	"io"
	"os"
	"strings"
	"testing"

	"ssp/internal/cliutil/clitest"
	"ssp/internal/exp"
)

func TestParseOnly(t *testing.T) {
	w, err := parseOnly("")
	if err != nil || len(w) != 0 {
		t.Fatalf("empty: %v %v", w, err)
	}
	w, err = parseOnly("fig8, table2")
	if err != nil || !w["fig8"] || !w["table2"] || len(w) != 2 {
		t.Fatalf("subset: %v %v", w, err)
	}
	// A typoed key must fail loudly instead of printing nothing and
	// exiting 0.
	if _, err := parseOnly("fig88"); err == nil {
		t.Fatal("accepted a typoed -only key")
	} else if !strings.Contains(err.Error(), "ablations") {
		t.Fatalf("error does not list valid keys: %v", err)
	}
	if _, err := parseOnly("fig8,bogus"); err == nil {
		t.Fatal("accepted a typoed key hidden in a valid list")
	}
}

func TestRunSubsetSmoke(t *testing.T) {
	s := exp.NewSuite(exp.ScaleTest)
	if err := emit(s, func(k string) bool { return k == "table2" }, false, io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestPaperExhibits pins the stdout of `experiments -scale paper -quiet`:
// every exhibit table at paper scale, byte for byte. It takes about 20 s on
// two cores, so it runs only with SSP_EXHIBITS=1 (make exhibits-check).
func TestPaperExhibits(t *testing.T) {
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
	clitest.Pin(t, cli, "experiments_paper", "-scale paper -quiet")
}
