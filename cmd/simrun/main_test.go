package main

import (
	"bytes"
	"io"
	"strconv"
	"strings"
	"testing"

	"ssp/internal/cliutil/clitest"
)

// TestPinnedOutput: the reports are byte-identical to what simrun printed
// when it linked and ran programs by hand, recorded from `simrun -bench mcf
// -scale 1500 -tiny -loads` (mcf's test size on the test memory system,
// which -scale test names now), `simrun -in mcf.ssp -model ooo -tiny`, and,
// at paper scale, `simrun -bench mcf`.
func TestPinnedOutput(t *testing.T) {
	clitest.Pin(t, run, "simrun_loads", "-bench mcf -scale test -loads")
	clitest.Pin(t, run, "simrun_ooo", "-in "+clitest.Dir+"/mcf.ssp -scale test -model ooo")
	if testing.Short() {
		t.Skip("paper-scale run skipped in -short mode")
	}
	clitest.Pin(t, run, "simrun_paper", "-bench mcf")
}

// TestLoadsOrder: the per-load table is deterministic, ordered by miss
// cycles descending and then by load ID. em3d has loads with equal miss
// cycles, which once printed in map order.
func TestLoadsOrder(t *testing.T) {
	args := strings.Fields("-bench em3d -scale test -loads")
	var first, second bytes.Buffer
	if err := run(args, &first, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(args, &second, io.Discard); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("two runs printed different reports:\n%s\n---\n%s", &first, &second)
	}
	_, table, ok := strings.Cut(first.String(), "loads (by miss cycles):\n")
	if !ok {
		t.Fatalf("no loads table:\n%s", &first)
	}
	type row struct{ id, miss int }
	var rows []row
	for _, line := range strings.Split(strings.TrimSpace(table), "\n") {
		var r row
		for _, f := range strings.Fields(line) {
			if v, ok := strings.CutPrefix(f, "id="); ok {
				r.id, _ = strconv.Atoi(v)
			}
			if v, ok := strings.CutPrefix(f, "misscycles="); ok {
				r.miss, _ = strconv.Atoi(v)
			}
		}
		rows = append(rows, r)
	}
	ties := 0
	for i := 1; i < len(rows); i++ {
		a, b := rows[i-1], rows[i]
		if a.miss < b.miss || a.miss == b.miss && a.id > b.id {
			t.Errorf("rows %d and %d out of order: %+v then %+v", i-1, i, a, b)
		}
		if a.miss == b.miss {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no tied loads: the table no longer exercises the tie-break")
	}
}

func TestSimrunCheckLayer(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-bench mcf -scale test -check"), &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "check:") {
		t.Fatalf("no check line:\n%s", &out)
	}
}

func TestSimrunErrors(t *testing.T) {
	for _, args := range []string{
		"-scale test",                         // no input
		"-bench mcf -scale test -model bogus", // unknown model
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
