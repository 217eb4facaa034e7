package main

import (
	"fmt"

	"ssp/internal/exp"
	"ssp/internal/serve"
)

const (
	hotJobs      = 80_000
	hotSmokeJobs = 500
	hotSSEEvery  = 50
	hotBatch     = 8_000 // jobs per timed segment
)

// runServeHot prewarms the 48 golden test-scale cells, then cycles jobs
// through them: every reply is a cache hit, so the run measures HTTP, JSON,
// the content hash and the flight lookup with no simulation.
func runServeHot(e *env) (*outcome, error) {
	o := &outcome{Workload: "serve-hot"}
	golden, err := loadGolden(e.root)
	if err != nil {
		return nil, err
	}
	var cells []job
	for _, b := range exp.Benchmarks() {
		for _, model := range []string{"in-order", "ooo"} {
			for _, v := range []string{"base", "ssp"} {
				name := fmt.Sprintf("%s/%s/%s", b, model, v)
				if _, ok := golden[name]; !ok {
					return nil, fmt.Errorf("golden baseline has no %s", name)
				}
				cells = append(cells, job{name: name, body: mustJSON(serve.JobSpec{Bench: b, Model: model, Variant: v, Scale: "test"})})
			}
		}
	}
	e.rng(3).Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	n := hotJobs
	if e.smoke {
		n = hotSmokeJobs
	}
	jobs := make([]job, n)
	for i := range jobs {
		jobs[i] = cells[i%len(cells)]
		jobs[i].sse = i%hotSSEEvery == hotSSEEvery-1
	}

	c := newClient()
	defer c.tr.CloseIdleConnections()
	var srv *server
	defer func() {
		if srv != nil {
			srv.close()
		}
	}()
	setupS, err := e.setup(3, func() error {
		if srv != nil {
			srv.close()
		}
		if srv, err = startServer(); err != nil {
			return err
		}
		replies := c.drive(srv.base, cells, nil, nil, 0)
		for i, r := range replies {
			if r.err != nil || r.resp == nil {
				return fmt.Errorf("prewarm %s: %v", cells[i].name, r.err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	check := func(replies []reply) {
		for i, r := range replies {
			switch {
			case r.err != nil:
				o.fail("%s: %v", jobs[i].name, r.err)
			case !r.resp.Cached:
				o.fail("%s: not served from cache", jobs[i].name)
			case r.resp.Result == nil || !sameStats(*r.resp.Result, golden[jobs[i].name]):
				o.fail("%s: result differs from golden_stats.json", jobs[i].name)
			}
		}
	}
	units, _ := e.measure(func(_ int, m *meter) (unit, error) {
		replies := c.drive(srv.base, jobs, nil, m, hotBatch)
		check(replies)
		return served(replies), nil
	})
	o.endToEnd(setupS, units)

	if e.traced {
		tr := NewTracer()
		before, retries := srv.srv.Snapshot(), c.retries.Load()
		var replies []reply
		u, _ := e.once(func(m *meter) (unit, error) {
			replies = c.drive(srv.base, jobs, tr, m, hotBatch)
			return unit{}, nil
		})
		check(replies)
		o.Attempted += len(jobs)
		serveLayers(o, jobs, replies, before, srv.srv.Snapshot(), c.retries.Load()-retries)
		o.set("trace.overhead_share", u.wall()/o.mustValue("wall_s")-1)
		e.spans = append(e.spans, tr.Spans()...)
	}
	return o, nil
}
