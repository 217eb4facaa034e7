package sim_test

import (
	"fmt"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// TestRSInvariantAdapted audits the OOO reservation station cycle by cycle
// on spawn-heavy SSP-adapted programs — mcf, and random programs adapted the
// way the strategy sweep adapts them — where speculative threads are killed
// and restarted on contexts that keep their windows, per-cycle and
// fast-forwarded. The machine is Reset from one run to the next.
func TestRSInvariantAdapted(t *testing.T) {
	var progs []*ir.Program
	names := []string{"mcf"}
	spec, err := workloads.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	mcf, _ := spec.Build(spec.TestScale)
	progs = append(progs, mcf)
	for _, seed := range []int64{3, 7} {
		progs = append(progs, workloads.RandomProgram(seed))
		names = append(names, fmt.Sprintf("seed%d", seed))
	}
	var m *sim.Machine
	for i, p := range progs {
		cfg := sim.DefaultOOO()
		cfg.UseTinyMem()
		prof, err := profile.Collect(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), names[i])
		if err != nil {
			t.Fatal(err)
		}
		img, err := ir.Link(adapted)
		if err != nil {
			t.Fatal(err)
		}
		dp := sim.Predecode(img)
		for _, ff := range []bool{false, true} {
			cfg.FastForward = ff
			if m == nil {
				m = sim.NewPredecoded(cfg, dp)
			}
			res, cov := sim.RunAudited(t, m, cfg, dp)
			if res.Spawns == 0 || cov.Spec == 0 {
				t.Fatalf("%s ff=%v: %d spawns, %d audited speculative cycles; the kill/restart path went untested",
					names[i], ff, res.Spawns, cov.Spec)
			}
			t.Logf("%s ff=%v: %d spawns, %d audited cycles (%d speculative, %d idle, %d with records outside the station)",
				names[i], ff, res.Spawns, cov.Cycles, cov.Spec, cov.Idle, cov.Outside)
		}
	}
}
