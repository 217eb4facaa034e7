// Command sspgen is the post-pass binary adaptation tool: given a program
// and its profile, it emits the SSP-enhanced binary with p-slices attached
// (the tool of Figure 1 and §3).
//
// Usage:
//
//	sspgen -in prog.ssp -profile prog.prof.json -out prog.ssp.enhanced
//	sspgen -bench mcf -scale test -out mcf.enhanced
//
// Without -profile, the output is the adapted binary of exp.Suite at the
// named scale, which profiles the program itself. With -profile, the tool
// adapts the loaded program with the given profile and simulates nothing:
// Figure 1's hand-off from the profiling pass.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"ssp/internal/cliutil"
	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/ssp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sspgen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sspgen", flag.ExitOnError)
	var (
		in       = fs.String("in", "", "input assembly file")
		bench    = fs.String("bench", "", "built-in benchmark name")
		scale    = fs.String("scale", "paper", "experiment scale: paper or test")
		profPath = fs.String("profile", "", "profile JSON from sspprof (omit to profile on the in-order model)")
		out      = fs.String("out", "", "output assembly path (default stdout)")

		cutoff  = fs.Float64("cutoff", 0.9, "delinquent-load miss-cycle coverage cutoff")
		chain   = fs.Bool("chaining", true, "allow chaining SP")
		rotate  = fs.Bool("rotate", true, "enable dependence-reduction scheduling")
		predict = fs.Bool("predict", true, "enable spawn-condition prediction")
		spec    = fs.Bool("speculate", true, "enable control-flow speculative slicing")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with status 2
	input, err := cliutil.ReadInput(*in, *bench, *scale)
	if err != nil {
		return err
	}
	opt := ssp.DefaultOptions()
	opt.DelinquentCutoff = *cutoff
	opt.Chaining = *chain
	opt.LoopRotation = *rotate
	opt.CondPrediction = *predict
	opt.SpeculativeSlicing = *spec
	enh, rep, err := adapt(input, *profPath, opt)
	if err != nil {
		return err
	}
	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if _, err := fmt.Fprint(w, ir.Format(enh)); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "targets %v\n", rep.DelinquentLoads)
	fmt.Fprintf(stderr, "slices: %d (%d interprocedural), avg size %.1f, avg live-ins %.1f\n",
		rep.NumSlices(), rep.NumInterproc(), rep.AvgSize(), rep.AvgLiveIns())
	for _, s := range rep.Slices {
		model := "basic"
		if s.Chaining {
			model = "chaining"
		}
		fmt.Fprintf(stderr, "  %-24s %-8s size=%-3d live-ins=%d predicted=%v slack csp=%.0f bsp=%.0f trips=%.0f\n",
			s.Region, model, s.Size, s.LiveIns, s.Predicted, s.SlackCSP, s.SlackBSP, s.TripCount)
	}
	return nil
}

// adapt returns input's adapted binary and tool report: the suite's binary
// cell, or, given a profile file, ssp.Adapt on the loaded program, which
// simulates nothing.
func adapt(input cliutil.Input, profPath string, opt ssp.Options) (*ir.Program, *ssp.Report, error) {
	if profPath == "" {
		return exp.NewSuite(input.Scale).Adapted(context.Background(), input.Bench, input.Src, opt)
	}
	p, err := input.Load()
	if err != nil {
		return nil, nil, err
	}
	f, err := os.Open(profPath)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	pr, err := profile.Load(f)
	if err != nil {
		return nil, nil, err
	}
	return ssp.Adapt(p, pr, opt, input.Bench+input.Path) // exactly one is set
}
