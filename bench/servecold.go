package main

import (
	"context"
	"fmt"
	"strings"

	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/serve"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

const (
	coldOptionJobs      = 600
	coldSourceJobs      = 600
	coldSmokeJobs       = 30 // of each kind
	coldUnsafeEvery     = 16 // every 16th source job is an unsafe mutant
	coldSSEEvery        = 10
	coldBatch           = 100 // jobs per timed segment
	coldRecomputeEvery  = 25
	coldSourceSeedScale = 10_000
)

// The tuner-knob grid option jobs draw from: 4 x 3 x 4 = 48 option sets per
// benchmark and model.
var (
	gridUnroll = []int{1, 2, 3, 4}
	gridDepth  = []int{2, 4, 6}
	gridBound  = []int64{32, 64, 128, 256}
)

// coldJob is one serve-cold request with what its reply is checked against.
type coldJob struct {
	job
	bench  string // option jobs
	model  sim.Model
	opt    ssp.Options
	source string // source jobs
	// unsafe is the injected violation class of a mutant (422 expected).
	unsafe ssp.SafetyClass
}

// coldJobs generates the seed's job mix: option jobs drawn without
// replacement from the 12 x 2 x 48 grid, RandomProgram source jobs, and
// unsafe mutants, in a seed-shuffled order. The draw is stratified: every
// benchmark and model gets the same number of option jobs (give or take
// one), and the seed picks which knob settings. Benchmarks differ in cost
// by an order of magnitude, so a plain draw would let the seed change how
// many costly jobs a run has.
func coldJobs(e *env) ([]coldJob, error) {
	r := e.rng(4)
	nOpt, nSrc := coldOptionJobs, coldSourceJobs
	if e.smoke {
		nOpt, nSrc = coldSmokeJobs, coldSmokeJobs
	}
	models := []sim.Model{sim.InOrder, sim.OOO}
	benches := exp.Benchmarks()
	pairs := len(benches) * len(models)
	knobs := len(gridUnroll) * len(gridDepth) * len(gridBound)
	perPair := make([]int, pairs)
	for i, p := range r.Perm(pairs) {
		perPair[p] = nOpt/pairs + btoi(i < nOpt%pairs)
	}
	var jobs []coldJob
	for p, n := range perPair {
		for _, k := range r.Perm(knobs)[:n] {
			bench, model := benches[p/len(models)], models[p%len(models)]
			bound := gridBound[k%len(gridBound)]
			k /= len(gridBound)
			depth := gridDepth[k%len(gridDepth)]
			unroll := gridUnroll[k/len(gridDepth)]
			jobs = append(jobs, optionJob(bench, model, unroll, depth, bound))
		}
	}
	profCfg := exp.NewSuite(exp.ScaleTest).MachineConfig(sim.InOrder)
	for i := 0; i < nSrc; i++ {
		seed := e.seed*coldSourceSeedScale + int64(i)
		p := workloads.RandomProgram(seed)
		model := models[r.Intn(len(models))]
		j := coldJob{model: model}
		variant := "ssp"
		if i%coldUnsafeEvery == coldUnsafeEvery-1 {
			class := ssp.UnsafeClasses[(i/coldUnsafeEvery)%len(ssp.UnsafeClasses)]
			prof, err := profile.Collect(p, profCfg)
			if err != nil {
				return nil, fmt.Errorf("mutant %d: profile: %w", seed, err)
			}
			adapted, _, err := ssp.Adapt(p, prof, ssp.DefaultOptions(), "source")
			if err != nil {
				return nil, fmt.Errorf("mutant %d: adapt: %w", seed, err)
			}
			m, ok := ssp.InjectUnsafe(adapted, class)
			if !ok {
				return nil, fmt.Errorf("mutant %d: no slice to inject %q into", seed, class)
			}
			p, j.unsafe, variant = m, class, "base"
		}
		j.source = ir.Format(p)
		j.name = fmt.Sprintf("source/%d/%s", seed, model)
		j.body = mustJSON(serve.JobSpec{Source: j.source, Model: model.String(), Variant: variant, Scale: "test"})
		jobs = append(jobs, j)
	}
	r.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
	for i := range jobs {
		jobs[i].sse = i%coldSSEEvery == coldSSEEvery-1
	}
	return jobs, nil
}

// optionJob is a built-in benchmark job under one point of the knob grid.
func optionJob(bench string, model sim.Model, unroll, depth int, bound int64) coldJob {
	opt := ssp.DefaultOptions()
	opt.ChainUnroll, opt.MaxRegionDepth, opt.ChainBound = unroll, depth, bound
	spec := serve.JobSpec{
		Bench: bench, Model: model.String(), Variant: "ssp", Scale: "test",
		Options: mustJSON(map[string]any{"ChainUnroll": unroll, "MaxRegionDepth": depth, "ChainBound": bound}),
	}
	return coldJob{
		job:   job{name: fmt.Sprintf("%s/%s/u%d,d%d,b%d", bench, model, unroll, depth, bound), body: mustJSON(spec)},
		bench: bench, model: model, opt: opt,
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runServeCold sends jobs that each have a distinct cache key, so every
// reply runs the write path: parse, safety vetting, profile, adapt, link,
// decode and a short simulation.
func runServeCold(e *env) (*outcome, error) {
	o := &outcome{Workload: "serve-cold"}
	cj, err := coldJobs(e)
	if err != nil {
		return nil, err
	}
	jobs := make([]job, len(cj))
	for i := range cj {
		jobs[i] = cj[i].job
	}

	c := newClient()
	defer c.tr.CloseIdleConnections()
	var srv *server
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	fresh := func() error {
		if srv != nil {
			srv.close()
		}
		srv, err = startServer()
		return err
	}
	setupS, err := e.setup(5, fresh)
	if err != nil {
		return nil, err
	}

	check := func(replies []reply) {
		for i, r := range replies {
			j := cj[i]
			switch {
			case j.unsafe != "":
				if r.status != 422 || r.unsafe == nil || !hasClass(r.unsafe, j.unsafe) {
					o.fail("%s: want 422 naming %q, got %d (%v)", j.name, j.unsafe, r.status, r.err)
				}
			case r.err != nil:
				o.fail("%s: %v", j.name, r.err)
			case r.resp.Result == nil:
				o.fail("%s: reply has no result", j.name)
			case r.resp.Cached:
				o.fail("%s: cache hit in a cold workload", j.name)
			}
		}
		if hits := srv.srv.Snapshot().Hits; hits != 0 {
			o.fail("server counted %d hits in a cold workload", hits)
		}
	}
	var last []reply
	units, err := e.measure(func(i int, m *meter) (unit, error) {
		if i > 0 {
			if err := fresh(); err != nil {
				return unit{}, err
			}
		}
		last = c.drive(srv.base, jobs, nil, m, coldBatch)
		check(last)
		return served(last), nil
	})
	if len(units) == 0 {
		return nil, err
	}
	o.endToEnd(setupS, units)

	// Recompute a sample of the replies outside the server. In the traced
	// pass the direct source pipeline runs under spans, which is where the
	// per-stage metrics of this workload come from.
	recompute := func(replies []reply, st stages) {
		suite := exp.NewSuite(exp.ScaleTest)
		var pool sim.Pool
		nOpt, nSrc := 0, 0
		for i, j := range cj {
			if j.unsafe != "" || replies[i].resp == nil || replies[i].resp.Result == nil {
				continue
			}
			var want *serve.JobResult
			var err error
			if j.source == "" {
				if nOpt++; (nOpt-1)%coldRecomputeEvery != 0 {
					continue
				}
				want, err = recomputeOptions(suite, j)
			} else {
				if nSrc++; (nSrc-1)%coldRecomputeEvery != 0 {
					continue
				}
				want, err = recomputeSource(st, &pool, j)
			}
			o.Attempted++
			switch {
			case err != nil:
				o.fail("%s: recompute: %v", j.name, err)
			case *want != *replies[i].resp.Result:
				o.fail("%s: served result differs from a direct run", j.name)
			}
		}
	}
	recompute(last, stages{})

	if e.traced {
		if err := fresh(); err != nil {
			return nil, err
		}
		tr, agg := NewTracer(), newSimAgg()
		before, retries := srv.srv.Snapshot(), c.retries.Load()
		var replies []reply
		u, _ := e.once(func(m *meter) (unit, error) {
			replies = c.drive(srv.base, jobs, tr, m, coldBatch)
			return unit{}, nil
		})
		check(replies)
		o.Attempted += len(jobs)
		serveLayers(o, jobs, replies, before, srv.srv.Snapshot(), c.retries.Load()-retries)
		o.set("trace.overhead_share", u.wall()/o.mustValue("wall_s")-1)
		recompute(replies, stages{tr, agg})
		spans := tr.Spans()
		spanLayers(o, spans)
		agg.layers(o)
		o.Notes = append(o.Notes, "serve-cold stage metrics come from the traced direct recomputation of every 25th source job")
		e.spans = append(e.spans, spans...)
	}
	return o, nil
}

func hasClass(u *serve.UnsafeResponse, class ssp.SafetyClass) bool {
	if u.Safety == nil || !strings.Contains(u.Error, string(class)) {
		return false
	}
	for _, v := range u.Safety.Violations {
		if v.Class == class {
			return true
		}
	}
	return false
}

// recomputeOptions runs an option job through the experiment suite.
func recomputeOptions(suite *exp.Suite, j coldJob) (*serve.JobResult, error) {
	res, err := suite.RunOptions(context.Background(), j.bench, j.model, j.opt)
	if err != nil {
		return nil, err
	}
	_, rep, err := suite.ProgramOptions(context.Background(), j.bench, j.opt)
	if err != nil {
		return nil, err
	}
	return jobResult(res, rep.NumSlices()), nil
}

// recomputeSource runs a source job directly: parse, vet, profile, adapt,
// link, decode, simulate — one public function per stage.
func recomputeSource(st stages, pool *sim.Pool, j coldJob) (*serve.JobResult, error) {
	root := st.tr.Start("job.direct", Active{})
	defer root.End(nil)
	suite := exp.NewSuite(exp.ScaleTest)
	cfg := suite.MachineConfig(j.model)
	p, err := st.parse(root, j.source)
	if err != nil {
		return nil, err
	}
	sp := st.tr.Start("ssp.certify", root)
	err = ssp.AnalyzeSafety(p, cfg.MaxSpecInstrs).Err()
	sp.End(nil)
	if err != nil {
		return nil, err
	}
	prof, err := st.profile(context.Background(), root, p, suite.MachineConfig(sim.InOrder))
	if err != nil {
		return nil, err
	}
	adapted, rep, err := st.adapt(root, p, prof, ssp.DefaultOptions(), "source", cfg.MaxSpecInstrs)
	if err != nil {
		return nil, err
	}
	dp, err := st.decode(root, adapted)
	if err != nil {
		return nil, err
	}
	res, err := st.simulate(context.Background(), root, pool, cfg, dp, nil)
	if err != nil {
		return nil, err
	}
	return jobResult(res, rep.NumSlices()), nil
}

// jobResult is the served stat vector of a simulation result.
func jobResult(res *sim.Result, slices int) *serve.JobResult {
	return &serve.JobResult{
		Cycles:      res.Cycles,
		Breakdown:   res.Breakdown,
		MainInstrs:  res.MainInstrs,
		SpecInstrs:  res.SpecInstrs,
		Spawns:      res.Spawns,
		ChkTaken:    res.ChkTaken,
		Mispredicts: res.Mispredicts,
		MemAccesses: res.Hier.Totals.Accesses,
		MemL1Hits:   res.Hier.Totals.Hits[0][0],
		MissCycles:  res.Hier.Totals.MissCycles,
		TLBMisses:   res.Hier.Totals.TLBMisses,
		Slices:      slices,
	}
}
