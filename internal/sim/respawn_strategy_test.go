package sim_test

import (
	"testing"

	"ssp/internal/check"
	"ssp/internal/sim"
)

// TestRespawnStrategyEquivalence: a speculative thread that blocks on a load
// across fast-forward jumps, and whose one context the next spawn reuses,
// yields the same whole Result with fast-forward off and on, over a fresh
// and a shared decode, and on a fresh and a Reset-reused machine — the wake
// cache and the dirty-slot scoreboard clear are invisible.
func TestRespawnStrategyEquivalence(t *testing.T) {
	cfgs := check.Configs(true)
	for i := range cfgs {
		cfgs[i].Contexts = 2
	}
	if err := check.StrategyEquivalence(cfgs, sim.RespawnProgram(30)); err != nil {
		t.Fatal(err)
	}
}
