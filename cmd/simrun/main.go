// Command simrun executes a binary on one of the research Itanium machine
// models and reports cycles, IPC, the Figure 10 cycle breakdown, SSP thread
// statistics, and optionally the per-load cache profile.
//
// Usage:
//
//	simrun -in prog.ssp -model in-order
//	simrun -bench mcf -model ooo -loads
//	simrun -bench mcf -scale test -check
//
// The run is exp.Suite's run cell for the program at the named scale, as a
// served job's is: every program is first profiled on the in-order model,
// and a run that hits the watchdog, kills its main thread, leaves the wrong
// answer (built-in benchmarks) or breaks a conservation rule is an error.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ssp/internal/check"
	"ssp/internal/cliutil"
	"ssp/internal/exp"
	"ssp/internal/sim"
	"ssp/internal/sim/mem"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "simrun:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("simrun", flag.ExitOnError)
	var (
		in    = fs.String("in", "", "input assembly file")
		bench = fs.String("bench", "", "built-in benchmark name")
		scale = fs.String("scale", "paper", "experiment scale: paper or test")
		model = fs.String("model", "in-order", "machine model: in-order or ooo")
		loads = fs.Bool("loads", false, "print the per-static-load cache profile")
		chk   = fs.Bool("check", false, "first check that the interpreter and both cycle models agree on the program")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with status 2
	input, err := cliutil.ReadInput(*in, *bench, *scale)
	if err != nil {
		return err
	}
	m, err := sim.ParseModel(*model)
	if err != nil {
		return err
	}
	ctx := context.Background()
	s := exp.NewSuite(input.Scale)
	orig, want, _, _, err := s.Original(ctx, input.Bench, input.Src)
	if err != nil {
		return err
	}
	if *chk {
		if err := check.Differential(check.Configs(input.Scale == exp.ScaleTest), orig, 1_000_000_000); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "check:        differential layer passed")
	}
	res, _, _, err := s.Served(input.Bench, input.Src, nil, m, nil).Do(ctx)
	if err != nil {
		return err
	}
	if input.Bench != "" {
		fmt.Fprintf(stdout, "checksum:     %d (verified)\n", want)
	}
	printStats(stdout, m, res, *loads)
	return nil
}

func printStats(w io.Writer, model sim.Model, res *sim.Result, loads bool) {
	fmt.Fprintf(w, "model:        %s\n", model)
	fmt.Fprintf(w, "cycles:       %d\n", res.Cycles)
	fmt.Fprintf(w, "instructions: %d main, %d speculative\n", res.MainInstrs, res.SpecInstrs)
	fmt.Fprintf(w, "ipc:          %.3f\n", res.IPC())
	fmt.Fprintf(w, "mispredicts:  %d\n", res.Mispredicts)
	fmt.Fprintf(w, "ssp:          %d chk taken, %d spawns, %d ignored\n", res.ChkTaken, res.Spawns, res.SpawnsIgnored)
	if res.Hier.PrefetchIssued > 0 {
		fmt.Fprintf(w, "prefetch:     %d issued, %d useful (accuracy %.2f), %d dropped\n",
			res.Hier.PrefetchIssued, res.Hier.PrefetchUseful,
			res.Hier.PrefetchAccuracy(), res.Hier.DroppedPrefetches)
	}
	if len(res.SpecActiveHist) > 0 && res.Spawns > 0 {
		fmt.Fprintf(w, "spec contexts active (cycles): ")
		for k, c := range res.SpecActiveHist {
			fmt.Fprintf(w, "%d:%d ", k, c)
		}
		fmt.Fprintln(w)
	}
	if res.Cycles > 0 {
		fmt.Fprintf(w, "breakdown:\n")
		for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
			fmt.Fprintf(w, "  %-11s %12d (%5.1f%%)\n", cat, res.Breakdown[cat],
				100*float64(res.Breakdown[cat])/float64(res.Cycles))
		}
	}
	if loads {
		type row struct {
			id int
			s  *mem.LoadStat
		}
		var rows []row
		for id, s := range res.Hier.ByLoad() {
			rows = append(rows, row{id, s})
		}
		sort.Slice(rows, func(i, j int) bool {
			if rows[i].s.MissCycles != rows[j].s.MissCycles {
				return rows[i].s.MissCycles > rows[j].s.MissCycles
			}
			return rows[i].id < rows[j].id
		})
		fmt.Fprintf(w, "loads (by miss cycles):\n")
		for i, r := range rows {
			if i >= 20 {
				break
			}
			fmt.Fprintf(w, "  id=%-5d acc=%-9d missrate=%.3f misscycles=%-10d L2=%d/%d L3=%d/%d Mem=%d/%d\n",
				r.id, r.s.Accesses, r.s.L1MissRate(), r.s.MissCycles,
				r.s.Hits[mem.L2][0], r.s.Hits[mem.L2][1],
				r.s.Hits[mem.L3][0], r.s.Hits[mem.L3][1],
				r.s.Hits[mem.Mem][0], r.s.Hits[mem.Mem][1])
		}
	}
}
