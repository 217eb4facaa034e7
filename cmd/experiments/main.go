// Command experiments regenerates the paper's evaluation: Figure 2,
// Table 2, Figure 8, Figure 9, Figure 10, the §4.5 automatic-vs-hand
// comparison, and the ablation study, printing each as a text table.
//
// The experiment matrix is presimulated on a worker pool (-workers, default
// the CPU count); per-cell progress lines go to stderr while the tables go
// to stdout. Results are bit-identical at any worker count.
//
// Usage:
//
//	experiments                  # everything at paper scale
//	experiments -scale test      # quick pass with the scaled-down machine
//	experiments -only fig8,table2
//	experiments -workers 1       # serial
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"ssp/internal/cliutil"
	"ssp/internal/exp"
	"ssp/internal/sim"
)

// exhibits lists the valid -only keys in output order.
var exhibits = []string{"fig2", "table2", "fig8", "fig9", "fig10", "sec45", "ablations"}

// options bundles the validated command-line parameters of one run.
type options struct {
	scale            exp.Scale
	wanted           map[string]bool
	workers          int
	quiet            bool
	envelope         bool
	cpuProf, memProf string
}

func main() {
	// Usage errors exit 2 before any work (or profiling) starts; run
	// errors exit 1 after run returns, so its deferred cleanup — the
	// profile stop in particular — always fires.
	o, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	if err := run(o, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// parseArgs validates the command line (a malformed flag exits 2 from the
// flag package itself).
func parseArgs(args []string) (options, error) {
	fs := flag.NewFlagSet("experiments", flag.ExitOnError)
	var (
		scale   = fs.String("scale", "paper", "experiment scale: paper or test")
		only    = fs.String("only", "", "comma-separated subset: "+strings.Join(exhibits, ","))
		workers = fs.Int("workers", runtime.NumCPU(), "parallel simulations (1 = serial)")
		quiet   = fs.Bool("quiet", false, "suppress the per-cell progress lines on stderr")
		envel   = fs.Bool("envelope", false, "fail if Table 2 leaves the paper's envelope (slice sizes 7-15, live-ins 1-4, per-benchmark slice minimums)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile of the run to this file")
	)
	_ = fs.Parse(args)
	sc, err := exp.ParseScale(*scale)
	if err != nil {
		return options{}, fmt.Errorf("-scale: %w", err)
	}
	wanted, err := parseOnly(*only)
	if err != nil {
		return options{}, err
	}
	if *workers < 1 {
		return options{}, fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	return options{sc, wanted, *workers, *quiet, *envel, *cpuProf, *memProf}, nil
}

func run(o options, stdout, stderr io.Writer) error {
	stopProf, err := cliutil.StartProfiles(o.cpuProf, o.memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	s := exp.NewSuite(o.scale)
	s.Workers = o.workers
	if !o.quiet {
		s.Progress = progressPrinter(stderr)
	}
	want := func(k string) bool { return len(o.wanted) == 0 || o.wanted[k] }
	return emit(s, want, o.envelope, stdout, stderr)
}

// parseOnly validates the -only subset against the known exhibit keys, so a
// typo fails loudly instead of printing nothing and exiting 0.
func parseOnly(s string) (map[string]bool, error) {
	wanted := map[string]bool{}
	if s == "" {
		return wanted, nil
	}
	valid := map[string]bool{}
	for _, k := range exhibits {
		valid[k] = true
	}
	for _, k := range strings.Split(s, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !valid[k] {
			return nil, fmt.Errorf("unknown -only key %q (valid: %s)", k, strings.Join(exhibits, ", "))
		}
		wanted[k] = true
	}
	return wanted, nil
}

// progressPrinter returns a Progress hook that writes one numbered line per
// simulated cell. The suite may call it from many worker goroutines.
func progressPrinter(w io.Writer) func(exp.RunKey, *sim.Result, time.Duration) {
	var mu sync.Mutex
	done := 0
	return func(k exp.RunKey, res *sim.Result, wall time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		done++
		fmt.Fprintf(w, "[%3d] %-28s %14d cycles  %7.2fs\n", done, k, res.Cycles, wall.Seconds())
	}
}

// emit prints the requested exhibits in output order.
func emit(s *exp.Suite, want func(string) bool, envelope bool, w, stderr io.Writer) error {
	f2 := func(v float64) string { return fmt.Sprintf("%.2f", v) }
	if want("fig2") {
		rows, err := s.Figure2()
		if err != nil {
			return err
		}
		var cells [][]string
		var pmIO, pdIO, pmOOO, pdOOO []float64
		for _, r := range rows {
			cells = append(cells, []string{r.Bench, f2(r.PerfMemIO), f2(r.PerfDelIO), f2(r.PerfMemOOO), f2(r.PerfDelOOO)})
			pmIO = append(pmIO, r.PerfMemIO)
			pdIO = append(pdIO, r.PerfDelIO)
			pmOOO = append(pmOOO, r.PerfMemOOO)
			pdOOO = append(pdOOO, r.PerfDelOOO)
		}
		cells = append(cells, []string{"average", f2(exp.Mean(pmIO)), f2(exp.Mean(pdIO)), f2(exp.Mean(pmOOO)), f2(exp.Mean(pdOOO))})
		fmt.Fprintln(w, "Figure 2: speedup with perfect memory vs. delinquent loads always hitting L1")
		fmt.Fprintln(w, exp.FormatTable(
			[]string{"bench", "io perfect-mem", "io perfect-del", "ooo perfect-mem", "ooo perfect-del"}, cells))
	}
	if want("table2") {
		rows, err := s.Table2()
		if err != nil {
			return err
		}
		var cells [][]string
		for _, r := range rows {
			ps, pi, psz, pli := "-", "-", "-", "-"
			if r.PaperSlices > 0 {
				ps = fmt.Sprint(r.PaperSlices)
				pi = fmt.Sprint(r.PaperInterproc)
				psz = fmt.Sprintf("%.1f", r.PaperAvgSize)
				pli = fmt.Sprintf("%.1f", r.PaperAvgLiveIns)
			}
			cells = append(cells, []string{r.Bench, fmt.Sprint(r.Slices), fmt.Sprint(r.Interproc),
				fmt.Sprintf("%.1f", r.AvgSize), fmt.Sprintf("%.1f", r.AvgLiveIns), ps, pi, psz, pli})
		}
		fmt.Fprintln(w, "Table 2: slice characteristics (paper columns = source Table 2 namesake)")
		fmt.Fprintln(w, exp.FormatTable([]string{"bench", "slices", "interproc", "avg size", "avg live-ins",
			"paper slices", "paper interproc", "paper size", "paper live-ins"}, cells))

		slices, err := s.Table2Slices()
		if err != nil {
			return err
		}
		var srows [][]string
		for _, sl := range slices {
			srows = append(srows, []string{sl.Bench, fmt.Sprint(sl.Slice), sl.Region, sl.Trigger, sl.Model,
				fmt.Sprint(sl.Size), fmt.Sprint(sl.LiveIns), fmt.Sprint(sl.Interprocedural), fmt.Sprint(sl.SpawnBudget)})
		}
		fmt.Fprintln(w, "Table 2 (per slice): the slice portfolio")
		fmt.Fprintln(w, exp.FormatTable([]string{"bench", "slice", "region", "trigger", "model",
			"size", "live-ins", "interproc", "spawn budget"}, srows))

		if envelope {
			if bad := exp.Table2Envelope(rows, slices); len(bad) > 0 {
				for _, m := range bad {
					fmt.Fprintln(stderr, "envelope:", m)
				}
				return fmt.Errorf("table 2 envelope: %d violation(s)", len(bad))
			}
			fmt.Fprintln(w, "Table 2 envelope: all slices within the paper's ranges (sizes 7-15, live-ins 1-4, per-benchmark slice minimums)")
		}
	}
	if want("fig8") {
		rows, err := s.Figure8()
		if err != nil {
			return err
		}
		var cells [][]string
		var a, b, c []float64
		for _, r := range rows {
			cells = append(cells, []string{r.Bench, f2(r.InOrderSSP), f2(r.OOO), f2(r.OOOSSP)})
			a = append(a, r.InOrderSSP)
			b = append(b, r.OOO)
			c = append(c, r.OOOSSP)
		}
		cells = append(cells, []string{"average", f2(exp.Mean(a)), f2(exp.Mean(b)), f2(exp.Mean(c))})
		fmt.Fprintln(w, "Figure 8: speedups over the baseline in-order model")
		fmt.Fprintln(w, exp.FormatTable([]string{"bench", "in-order+SSP", "OOO", "OOO+SSP"}, cells))
		fmt.Fprintf(w, "in-order SSP average speedup: %+.0f%%   SSP on OOO average: %+.0f%%\n\n",
			100*(exp.Mean(a)-1), 100*(exp.Mean(c)/exp.Mean(b)-1))
	}
	if want("fig9") {
		rows, err := s.Figure9()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 9: where delinquent loads are satisfied when missing L1")
		header := []string{"bench", "config", "L1 missrate", "L2", "L2 part", "L3", "L3 part", "Mem", "Mem part"}
		var cells [][]string
		for _, r := range rows {
			for _, c := range r.Configs {
				pc := func(k string) string { return fmt.Sprintf("%.0f%%", 100*c.Share[k]) }
				cells = append(cells, []string{r.Bench, c.Label, fmt.Sprintf("%.3f", c.L1MissRate),
					pc("L2"), pc("L2 partial"), pc("L3"), pc("L3 partial"), pc("Mem"), pc("Mem partial")})
			}
		}
		fmt.Fprintln(w, exp.FormatTable(header, cells))
	}
	if want("fig10") {
		rows, err := s.Figure10()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Figure 10: cycle breakdown normalized to the baseline in-order cycles")
		header := []string{"bench", "config", "total"}
		for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
			header = append(header, cat.String())
		}
		var cells [][]string
		for _, r := range rows {
			for _, c := range r.Configs {
				row := []string{r.Bench, c.Label, fmt.Sprintf("%.2f", c.Total)}
				for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
					row = append(row, fmt.Sprintf("%.2f", c.Norm[cat]))
				}
				cells = append(cells, row)
			}
		}
		fmt.Fprintln(w, exp.FormatTable(header, cells))
	}
	if want("sec45") {
		rows, err := s.Section45()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Section 4.5: automatic vs. hand adaptation")
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Bench, r.Model, f2(r.AutoSpeedup), f2(r.HandSpeedup),
				fmt.Sprintf("%.0f%%", r.LossPct)})
		}
		fmt.Fprintln(w, exp.FormatTable([]string{"bench", "model", "auto speedup", "hand speedup", "tool loss"}, cells))
	}
	if want("ablations") {
		rows, err := s.Ablations(nil)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablations: in-order speedup with each design choice disabled")
		var cells [][]string
		for _, r := range rows {
			cells = append(cells, []string{r.Bench, string(r.Variant), f2(r.Speedup)})
		}
		fmt.Fprintln(w, exp.FormatTable([]string{"bench", "variant", "speedup"}, cells))
	}
	return nil
}
