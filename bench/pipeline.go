package main

import (
	"context"
	"fmt"
	"time"

	"ssp/internal/check"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// stages runs the adapt+simulate pipeline one public function at a time,
// with a span around each call when tr is non-nil. It is how the traced
// runs see into the layers from outside, and how serve-cold recomputes
// served results directly.
type stages struct {
	tr  *Tracer
	agg *simAgg
}

func (st stages) build(parent Active, spec workloads.Spec, scale int) (*ir.Program, uint64) {
	sp := st.tr.Start("workloads.build", parent)
	defer sp.End(nil)
	return spec.Build(scale)
}

func (st stages) parse(parent Active, src string) (*ir.Program, error) {
	sp := st.tr.Start("ir.parse", parent)
	defer sp.End(nil)
	return ir.Parse(src)
}

func (st stages) profile(ctx context.Context, parent Active, p *ir.Program, cfg sim.Config) (*profile.Profile, error) {
	sp := st.tr.Start("profile.collect", parent)
	defer sp.End(nil)
	return profile.CollectContext(ctx, p, cfg)
}

// adapt runs the post-pass tool, then the safety certifier over its output
// as its own span. Adapt also certifies internally, so ssp.certify_s is the
// certifier's cost measured once more outside the tool.
func (st stages) adapt(parent Active, p *ir.Program, prof *profile.Profile, opt ssp.Options, label string, ceiling int64) (*ir.Program, *ssp.Report, error) {
	sp := st.tr.Start("ssp.adapt", parent)
	q, rep, err := ssp.Adapt(p, prof, opt, label)
	sp.End(nil)
	if err != nil {
		return nil, nil, fmt.Errorf("adapt: %w", err)
	}
	sp = st.tr.Start("ssp.certify", parent)
	err = ssp.AnalyzeSafety(q, ceiling).Err()
	sp.End(map[string]float64{"slices": float64(rep.NumSlices())})
	if err != nil {
		return nil, nil, err
	}
	return q, rep, nil
}

// decode links, predecodes and compiles the threaded chains of a binary.
func (st stages) decode(parent Active, p *ir.Program) (*decode.Program, error) {
	sp := st.tr.Start("ir.link", parent)
	img, err := ir.Link(p)
	sp.End(nil)
	if err != nil {
		return nil, fmt.Errorf("link: %w", err)
	}
	sp = st.tr.Start("decode.predecode", parent)
	dp := sim.Predecode(img)
	sp.End(nil)
	sp = st.tr.Start("threaded.compile", parent)
	sim.ThreadedProgram(dp)
	sp.End(nil)
	return dp, nil
}

// simulate runs one binary on a pooled machine, checks the answer checksum
// when want is non-nil, returns the machine to the pool on a clean
// completion, and checks conservation.
func (st stages) simulate(ctx context.Context, parent Active, pool *sim.Pool, cfg sim.Config, dp *decode.Program, want *uint64) (*sim.Result, error) {
	m := pool.Get(cfg, dp)
	sp := st.tr.Start("sim.run."+cfg.Model.String(), parent)
	t0 := time.Now()
	res, err := m.RunContext(ctx)
	d := time.Since(t0)
	sp.End(nil)
	if err != nil {
		return nil, err
	}
	if res.TimedOut {
		return nil, fmt.Errorf("watchdog expired after %d cycles", res.Cycles)
	}
	if want != nil {
		if got := m.Mem.Load(workloads.ResultAddr); got != *want {
			return nil, fmt.Errorf("checksum %d, want %d", got, *want)
		}
	}
	pool.Put(m)
	st.agg.addRun(cfg.Model, d, res)
	sp = st.tr.Start("check.conservation", parent)
	err = check.Conservation(res)
	sp.End(nil)
	return res, err
}
