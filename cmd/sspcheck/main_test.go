package main

import (
	"strings"
	"testing"
)

// TestSweepModes smoke-tests every mode of the CLI through the extracted
// sweep function: a short seed range must pass cleanly in the default
// (three-layer), execution-strategy-equivalence and speculation-safety
// modes and for a single seed, and passing two mode flags must be refused
// (cmd-level coverage of the wiring; the layers themselves are tested in
// internal/check).
func TestSweepModes(t *testing.T) {
	modes := []struct {
		name string
		o    options
		want string
	}{
		{"default", options{seeds: 4, seed: -1}, "all three layers"},
		{"strategy", options{seeds: 4, seed: -1, strategy: true}, "execution-strategy-equivalence"},
		{"safety", options{seeds: 4, seed: -1, safety: true}, "speculation-safety"},
		{"single-seed", options{seed: 17, verbose: true}, "seed 17: ok"},
	}
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			t.Parallel()
			var out, errw strings.Builder
			total, failures, err := sweep(m.o, &out, &errw)
			if err != nil {
				t.Fatal(err)
			}
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
	t.Run("conflicting-modes", func(t *testing.T) {
		var out, errw strings.Builder
		total, _, err := sweep(options{seeds: 4, seed: -1, strategy: true, safety: true}, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), "-strategy and -safety") {
			t.Fatalf("conflicting modes: err = %v, want a -strategy/-safety conflict", err)
		}
		if total != 0 || out.Len() != 0 || errw.Len() != 0 {
			t.Fatalf("conflicting modes still ran %d seeds: %q %q", total, out.String(), errw.String())
		}
	})
}

// TestSweepReportsInSeedOrder: seeds run concurrently, but the per-seed
// report lines come out in seed order.
func TestSweepReportsInSeedOrder(t *testing.T) {
	var out, errw strings.Builder
	if _, failures, err := sweep(options{seeds: 6, start: 10, seed: -1, verbose: true}, &out, &errw); err != nil || failures != 0 {
		t.Fatalf("err=%v failures=%d:\n%s", err, failures, errw.String())
	}
	want := "seed 10: ok\nseed 11: ok\nseed 12: ok\nseed 13: ok\nseed 14: ok\nseed 15: ok\n"
	if !strings.HasPrefix(out.String(), want) {
		t.Fatalf("report out of seed order:\n%s", out.String())
	}
}
