package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"ssp/internal/exp"
	"ssp/internal/flight"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// matrixWorkers is the worker count of the matrix, as the host has 2 CPUs.
const matrixWorkers = 2

// Paper and reproduction values for the Figure 8 summary (EXPERIMENTS.md).
const (
	paperIOSpeedup   = 1.87
	paperOOOGain     = 1.05
	expectIOSpeedup  = 2.01
	expectOOOSSPGain = 0.97
)

// runMatrix runs the 12 benchmarks x {in-order, ooo} x {base, ssp} matrix
// through exp.Suite.RunAll and Figure8, submitting the cells in a
// seed-shuffled order.
func runMatrix(e *env) (*outcome, error) {
	o := &outcome{Workload: "matrix-paper"}
	scale := exp.ScalePaper
	if e.smoke {
		scale = exp.ScaleTest
	}
	keys := exp.Cross(exp.Benchmarks(), []sim.Model{sim.InOrder, sim.OOO}, []exp.Variant{exp.VarBase, exp.VarSSP})
	e.rng(1).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })

	var suite *exp.Suite
	var mu sync.Mutex
	var u unit
	newSuite := func() {
		suite = exp.NewSuite(scale)
		suite.Workers = matrixWorkers
		suite.Progress = func(_ exp.RunKey, res *sim.Result, wall time.Duration) {
			mu.Lock()
			u.latencies = append(u.latencies, wall)
			u.cycles += res.Cycles
			mu.Unlock()
		}
	}
	setupS, err := e.setup(5, func() error { newSuite(); return nil })
	if err != nil {
		return nil, err
	}
	var rows []exp.Fig8Row
	units, err := e.measure(func(i int, m *meter) (unit, error) {
		if i > 0 {
			newSuite()
		}
		u = unit{ops: len(keys)}
		var err error
		m.time(func() {
			if err = suite.RunAll(keys, matrixWorkers); err == nil {
				rows, err = suite.Figure8()
			}
		})
		return u, err
	})
	if len(units) == 0 {
		return nil, err
	}
	if err != nil {
		o.fail("figure 8: %v", err)
	}
	o.endToEnd(setupS, units)

	// Output checks: every cell of the last unit passed the suite's
	// checksum and conservation checks (a failed cell's error is cached).
	results := make(map[exp.RunKey]*sim.Result, len(keys))
	for _, k := range keys {
		res, err := suite.Run(k.Bench, k.Model, k.Variant)
		if err != nil {
			o.fail("%s: %v", k, err)
			continue
		}
		results[k] = res
	}
	if len(rows) > 0 {
		var io, ooo, oooSSP []float64
		for _, r := range rows {
			io = append(io, r.InOrderSSP)
			ooo = append(ooo, r.OOO)
			oooSSP = append(oooSSP, r.OOOSSP)
		}
		ioMean := mean(io)
		gain := mean(oooSSP) / mean(ooo)
		o.set("io_ssp_speedup_mean", ioMean)
		o.set("ooo_ssp_gain", gain)
		o.Notes = append(o.Notes,
			fmt.Sprintf("io_ssp_speedup_mean %.2f vs paper %.2f: error %+.1f%%", ioMean, paperIOSpeedup, 100*(ioMean-paperIOSpeedup)/paperIOSpeedup),
			fmt.Sprintf("ooo_ssp_gain %.2f vs paper %.2f: error %+.1f%%", gain, paperOOOGain, 100*(gain-paperOOOGain)/paperOOOGain))
		if !e.smoke && (round2(ioMean) != expectIOSpeedup || round2(gain) != expectOOOSSPGain) {
			o.fail("Figure 8 summary moved: io %.4f (want %.2f), ooo gain %.4f (want %.2f)", ioMean, expectIOSpeedup, gain, expectOOOSSPGain)
		}
	}

	if e.traced {
		o.set("exp.pool_reuse", float64(suite.PoolStats().Hits))
		tr, agg := NewTracer(), newSimAgg()
		var replayed map[exp.RunKey]*sim.Result
		traced, err := e.once(func(m *meter) (unit, error) {
			var err error
			m.time(func() { replayed, err = replayMatrix(context.Background(), scale, keys, stages{tr, agg}) })
			return unit{}, err
		})
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		o.Attempted += len(keys)
		for _, k := range keys {
			if want, got := results[k], replayed[k]; want != nil && (got == nil || got.Cycles != want.Cycles) {
				o.fail("%s: traced replay diverged from the suite", k)
			}
		}
		spans := tr.Spans()
		spanLayers(o, spans)
		agg.layers(o)
		o.set("trace.overhead_share", traced.wall()/o.mustValue("wall_s")-1)
		o.Notes = append(o.Notes, "traced matrix replays the cells stage by stage outside exp.Suite, so trace.overhead_share also counts the suite's memo bookkeeping (and Figure8) as overhead")
		e.spans = append(e.spans, spans...)
	}
	return o, nil
}

// benchProg is one benchmark built and profiled once for the replay.
type benchProg struct {
	orig *ir.Program
	want uint64
	prof *profile.Profile
}

// replayMatrix runs the matrix cells stage by stage through the public
// functions, with the suite's sharing: one build and profile per benchmark,
// one link+decode per binary, machines from one pool, and the same number
// of workers taking cells in the given order.
func replayMatrix(ctx context.Context, scale exp.Scale, keys []exp.RunKey, st stages) (map[exp.RunKey]*sim.Result, error) {
	cfgs := exp.NewSuite(scale)
	progs := make(map[string]*flight.Cell[*benchProg])
	bins := make(map[string]*flight.Cell[*decode.Program])
	for _, k := range keys {
		progs[k.Bench] = new(flight.Cell[*benchProg])
		bins[k.Bench+"/"+string(k.Variant)] = new(flight.Cell[*decode.Program])
	}
	var pool sim.Pool
	results := make([]*sim.Result, len(keys))
	errs := make([]error, len(keys))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < matrixWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				results[i], errs[i] = replayCell(ctx, st, cfgs, &pool, progs, bins, scale, keys[i])
			}
		}()
	}
	for i := range keys {
		work <- i
	}
	close(work)
	wg.Wait()
	out := make(map[exp.RunKey]*sim.Result, len(keys))
	for i, k := range keys {
		if errs[i] != nil {
			return nil, fmt.Errorf("%s: %w", k, errs[i])
		}
		out[k] = results[i]
	}
	return out, nil
}

func replayCell(ctx context.Context, st stages, cfgs *exp.Suite, pool *sim.Pool,
	progs map[string]*flight.Cell[*benchProg], bins map[string]*flight.Cell[*decode.Program],
	scale exp.Scale, k exp.RunKey) (*sim.Result, error) {
	cell := st.tr.Start("cell", Active{})
	defer cell.End(nil)
	bp, err := progs[k.Bench].Do(ctx, func(ctx context.Context) (*benchProg, error) {
		spec, err := workloads.ByName(k.Bench)
		if err != nil {
			return nil, err
		}
		n := spec.Scale
		if scale == exp.ScaleTest {
			n = spec.TestScale
		}
		orig, want := st.build(cell, spec, n)
		prof, err := st.profile(ctx, cell, orig, cfgs.MachineConfig(sim.InOrder))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		return &benchProg{orig, want, prof}, nil
	})
	if err != nil {
		return nil, err
	}
	cfg := cfgs.MachineConfig(k.Model)
	dp, err := bins[k.Bench+"/"+string(k.Variant)].Do(ctx, func(ctx context.Context) (*decode.Program, error) {
		p := bp.orig
		if k.Variant == exp.VarSSP {
			var err error
			if p, _, err = st.adapt(cell, bp.orig, bp.prof, ssp.DefaultOptions(), k.Bench, cfg.MaxSpecInstrs); err != nil {
				return nil, err
			}
		}
		return st.decode(cell, p)
	})
	if err != nil {
		return nil, err
	}
	return st.simulate(ctx, cell, pool, cfg, dp, &bp.want)
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func round2(x float64) float64 { return math.Round(x*100) / 100 }
