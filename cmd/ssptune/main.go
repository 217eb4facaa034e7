// Command ssptune runs the closed-loop auto-tuner: for each benchmark it
// evaluates a grid of ssp.Options through the adaptive re-profiling loop
// (internal/tune) and reports the best configuration, its per-round
// trajectory, and the headroom recovered over the one-shot tool.
//
// Usage:
//
//	ssptune                               # mcf, in-order, paper scale, full grid
//	ssptune -bench mcf,health -model ooo
//	ssptune -scale test -rounds 2 -grid quick -require-converged
//	ssptune -json                         # JSON to stdout instead of tables
//	ssptune -out BENCH_tune.json          # also write the JSON report
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"

	"ssp/internal/cliutil"
	"ssp/internal/exp"
	"ssp/internal/sim"
	"ssp/internal/tune"
	"ssp/internal/workloads"
)

// options bundles the validated command-line parameters of one run.
type options struct {
	benches          []string
	model            sim.Model
	scale            exp.Scale
	params           tune.Params
	grid             []tune.GridPoint
	workers          int
	jsonOut          bool
	outFile          string
	requireConverged bool
	quiet            bool
	cpuProf, memProf string
}

func main() {
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "ssptune:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "ssptune:", err)
		os.Exit(1)
	}
}

// parseArgs reads the command line into validated options (a malformed flag
// exits 2 from the flag package itself).
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("ssptune", flag.ExitOnError)
	var (
		bench   = fs.String("bench", "mcf", "comma-separated benchmarks (see cmd/experiments)")
		model   = fs.String("model", "in-order", "machine model: in-order or ooo")
		scale   = fs.String("scale", "paper", "experiment scale: paper or test")
		rounds  = fs.Int("rounds", tune.DefaultMaxRounds, "max re-profiling rounds per candidate (after the one-shot round 0)")
		eps     = fs.Float64("eps", tune.DefaultEpsilon, "relative speedup-delta convergence threshold")
		grid    = fs.String("grid", tune.DefaultGrid, "search grid: full or quick")
		workers = fs.Int("workers", runtime.NumCPU(), "parallel simulations (1 = serial)")
		jsonOut = fs.Bool("json", false, "print the JSON report to stdout instead of tables")
		outFile = fs.String("out", "", "also write the JSON report to this file")
		reqConv = fs.Bool("require-converged", false, "exit nonzero unless every best candidate converged")
		quiet   = fs.Bool("quiet", false, "suppress the per-round progress lines on stderr")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	_ = fs.Parse(args)
	o, err := parse(*bench, *model, *scale, *rounds, *eps, *grid, *workers)
	if err != nil {
		return o, err
	}
	o.jsonOut, o.outFile, o.requireConverged, o.quiet = *jsonOut, *outFile, *reqConv, *quiet
	o.cpuProf, o.memProf = *cpuProf, *memProf
	return o, nil
}

// parse validates the flag values (usage errors; exit 2 before work starts).
func parse(bench, model, scale string, rounds int, eps float64, grid string, workers int) (options, error) {
	var o options
	for _, b := range strings.Split(bench, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			continue
		}
		if _, err := workloads.ByName(b); err != nil {
			return o, err
		}
		o.benches = append(o.benches, b)
	}
	if len(o.benches) == 0 {
		return o, fmt.Errorf("no benchmarks given")
	}
	var err error
	if o.model, err = sim.ParseModel(model); err != nil {
		return o, fmt.Errorf("-model: %w", err)
	}
	if o.scale, err = exp.ParseScale(scale); err != nil {
		return o, fmt.Errorf("-scale: %w", err)
	}
	if o.grid, err = tune.Grid(grid); err != nil {
		return o, fmt.Errorf("-grid: %w", err)
	}
	if rounds < 1 {
		return o, fmt.Errorf("-rounds must be at least 1, got %d", rounds)
	}
	if workers < 1 {
		return o, fmt.Errorf("-workers must be at least 1, got %d", workers)
	}
	if !(eps >= 0) {
		return o, fmt.Errorf("-eps must not be negative, got %v", eps)
	}
	o.params = tune.Params{MaxRounds: rounds, Epsilon: eps}
	o.workers = workers
	return o, nil
}

// report is the JSON envelope of a run (the BENCH_tune.json layout).
type report struct {
	Results []*tune.Result `json:"results"`
}

func run(o options, stdout, stderr io.Writer) error {
	stopProf, err := cliutil.StartProfiles(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	s := exp.NewSuite(o.scale)
	s.Workers = o.workers
	tn := tune.New(s)
	if !o.quiet {
		var mu sync.Mutex
		tn.Progress = func(format string, args ...any) {
			mu.Lock()
			defer mu.Unlock()
			fmt.Fprintf(stderr, format+"\n", args...)
		}
	}
	var rep report
	for _, bench := range o.benches {
		res, err := tn.Tune(context.Background(), bench, o.model, o.params, o.grid)
		if err != nil {
			return err
		}
		rep.Results = append(rep.Results, res)
	}
	if !o.quiet {
		rounds := 0
		for _, res := range rep.Results {
			for _, c := range res.Candidates {
				rounds += len(c.Rounds)
			}
		}
		// Rounds whose images coincide share one simulation in the suite.
		fmt.Fprintf(stderr, "%d rounds, %d simulations\n", rounds, s.PoolStats().Gets)
	}
	if o.outFile != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(o.outFile, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if o.jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		emit(stdout, rep)
	}
	if o.requireConverged {
		for _, res := range rep.Results {
			if !res.Best.Converged {
				return fmt.Errorf("%s/%s: best candidate %q did not converge within %d rounds",
					res.Bench, res.Model, res.Best.Label, o.params.MaxRounds)
			}
		}
	}
	return nil
}

// emit prints one table per tuned benchmark.
func emit(w io.Writer, rep report) {
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	for _, res := range rep.Results {
		fmt.Fprintf(w, "%s on %s (%s scale): one-shot %sx, tuned %sx (%q, round %d)\n",
			res.Bench, res.Model, res.Scale, f2(res.OneShot), f2(res.Best.Best),
			res.Best.Label, res.Best.BestRound)
		var cells [][]string
		for _, c := range res.Candidates {
			if c.Err != "" {
				cells = append(cells, []string{c.Label, "-", "-", "-", "error: " + c.Err})
				continue
			}
			var traj []string
			for _, r := range c.Rounds {
				traj = append(traj, f2(r.Speedup))
			}
			conv := "no"
			if c.Converged {
				conv = "yes"
			}
			cells = append(cells, []string{c.Label, f2(c.Best), fmt.Sprint(c.BestRound), conv,
				strings.Join(traj, " → ")})
		}
		fmt.Fprintln(w, exp.FormatTable(
			[]string{"candidate", "best", "round", "converged", "trajectory"}, cells))
	}
}
