package main

import (
	"strings"
	"testing"
)

// TestSweepModes smoke-tests the CLI through the extracted sweep function:
// a short seed range and a single seed must pass cleanly (cmd-level
// coverage of the wiring; the layers themselves are tested in
// internal/check).
func TestSweepModes(t *testing.T) {
	modes := []struct {
		name string
		o    options
		want string
	}{
		{"range", options{seeds: 4, seed: -1}, "4 seeds passed every layer"},
		{"single-seed", options{seed: 17, verbose: true}, "seed 17: ok"},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			var out, errw strings.Builder
			total, failures := sweep(m.o, &out, &errw)
			if failures != 0 {
				t.Fatalf("%d/%d seeds failed:\n%s", failures, total, errw.String())
			}
			want := int64(4)
			if m.o.seed >= 0 {
				want = 1
			}
			if total != want {
				t.Fatalf("checked %d seeds, want %d", total, want)
			}
			if !strings.Contains(out.String(), m.want) {
				t.Fatalf("output missing %q:\n%s", m.want, out.String())
			}
		})
	}
}

// TestSweepReportsInSeedOrder: seeds run concurrently, but the per-seed
// report lines come out in seed order.
func TestSweepReportsInSeedOrder(t *testing.T) {
	var out, errw strings.Builder
	if _, failures := sweep(options{seeds: 6, start: 10, seed: -1, verbose: true}, &out, &errw); failures != 0 {
		t.Fatalf("%d failures:\n%s", failures, errw.String())
	}
	want := "seed 10: ok\nseed 11: ok\nseed 12: ok\nseed 13: ok\nseed 14: ok\nseed 15: ok\n"
	if !strings.HasPrefix(out.String(), want) {
		t.Fatalf("report out of seed order:\n%s", out.String())
	}
}
