package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"ssp/internal/exp"
	"ssp/internal/sim"
	"ssp/internal/tune"
)

// tuneBenches are the §4.5 configuration (mcf) and the benchmark where
// re-profiling grows the slice portfolio (rand.2p), with the best speedups
// BENCH_tune.json and the tuner tests record for them.
var tuneBenches = []struct {
	name string
	best float64
}{{"mcf", 5.38}, {"rand.2p", 7.01}}

const (
	tuneRounds  = 3
	tuneWorkers = 2
)

// roundLog timestamps the tuner's per-round progress lines so round
// durations can be recovered from outside the tuner.
type roundLog struct {
	mu    sync.Mutex
	last  map[string]time.Time // candidate label -> last round's end
	secs  []float64            // durations of rounds 1 and up
	tr    *Tracer
	trace Active
}

func (l *roundLog) progress(format string, args ...any) {
	now := time.Now()
	line := fmt.Sprintf(format, args...)
	// Lines read "bench/model label round N: ..."; the label identifies the
	// candidate, whose previous round ended at its previous line.
	head, _, _ := strings.Cut(line, ":")
	fields := strings.Fields(head)
	if len(fields) < 4 {
		return
	}
	cand := fields[0] + " " + fields[1]
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.last[cand]; ok {
		l.secs = append(l.secs, now.Sub(prev).Seconds())
		l.tr.StartAt("tune.round", l.trace, prev).End(nil)
	}
	l.last[cand] = now
}

// runTune runs the full options grid with 3 re-profiling rounds per
// candidate, in-order, on each tuned benchmark, with 2 workers.
func runTune(e *env) (*outcome, error) {
	o := &outcome{Workload: "tune-paper"}
	scale := exp.ScalePaper
	grid := tune.FullGrid()
	if e.smoke {
		scale, grid = exp.ScaleTest, tune.QuickGrid()
	}
	var tuner *tune.Tuner
	newTuner := func() {
		suite := exp.NewSuite(scale)
		suite.Workers = tuneWorkers
		tuner = tune.New(suite)
	}
	setupS, err := e.setup(5, func() error { newTuner(); return nil })
	if err != nil {
		return nil, err
	}

	var results []*tune.Result
	tuneOnce := func(progress func(string, ...any), m *meter) (unit, error) {
		tuner.Progress = progress
		var u unit
		results = results[:0]
		for i, b := range tuneBenches {
			if i > 0 {
				m.calibrate(1)
			}
			var res *tune.Result
			var err error
			d := m.time(func() {
				res, err = tuner.Tune(context.Background(), b.name, sim.InOrder, tune.Params{MaxRounds: tuneRounds}, grid)
			})
			if err != nil {
				return u, fmt.Errorf("tune %s: %w", b.name, err)
			}
			results = append(results, res)
			u.latencies = append(u.latencies, d)
			u.ops++
		}
		_, u.cycles = roundTotals(results)
		for _, res := range results {
			u.cycles += res.BaseCycles
		}
		return u, nil
	}
	units, err := e.measure(func(i int, m *meter) (unit, error) {
		if i > 0 {
			newTuner()
		}
		return tuneOnce(nil, m)
	})
	if len(units) == 0 {
		return nil, err
	}
	if err != nil {
		o.fail("%v", err)
	}
	o.endToEnd(setupS, units)

	// Output checks: every candidate adapted, and each best speedup is the
	// recorded one.
	var bests []float64
	for i, res := range results {
		for _, c := range res.Candidates {
			if c.Err != "" {
				o.fail("%s %s: %s", res.Bench, c.Label, c.Err)
			}
		}
		bests = append(bests, res.Best.Best)
		if !e.smoke && round2(res.Best.Best) != tuneBenches[i].best {
			o.fail("%s: best speedup %.4f, want %.2f", res.Bench, res.Best.Best, tuneBenches[i].best)
		}
	}
	if len(bests) == len(tuneBenches) {
		o.set("tune_best_speedup_gmean", geomean(bests))
	}

	if e.traced {
		o.set("exp.pool_reuse", float64(tuner.Suite.PoolStats().Hits))
		newTuner()
		tr := NewTracer()
		root := tr.Start("tune", Active{})
		log := &roundLog{last: make(map[string]time.Time), tr: tr, trace: root}
		u, err := e.once(func(m *meter) (unit, error) { return tuneOnce(log.progress, m) })
		root.End(nil)
		if err != nil {
			return nil, fmt.Errorf("traced tune: %w", err)
		}
		o.Attempted += u.ops
		var cands, converged float64
		for _, res := range results {
			for _, c := range res.Candidates {
				cands++
				if c.Converged {
					converged++
				}
			}
		}
		rounds, _ := roundTotals(results)
		o.set("tune.rounds", float64(rounds))
		o.set("tune.round_s_p50", median(log.secs))
		o.set("tune.converged_share", ratio(converged, cands))
		o.set("trace.overhead_share", u.wall()/o.mustValue("wall_s")-1)
		e.spans = append(e.spans, tr.Spans()...)
	}
	return o, nil
}

// roundTotals returns how many rounds the tuner ran, round 0 included,
// and their simulated cycles.
func roundTotals(results []*tune.Result) (rounds int, cycles int64) {
	for _, res := range results {
		for _, c := range res.Candidates {
			for _, r := range c.Rounds {
				rounds++
				cycles += r.Cycles
			}
		}
	}
	return rounds, cycles
}
