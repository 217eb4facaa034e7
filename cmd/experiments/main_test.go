package main

import (
	"strings"
	"testing"

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
	if err := emit(s, func(k string) bool { return k == "table2" }, false); err != nil {
		t.Fatal(err)
	}
}
