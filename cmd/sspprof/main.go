// Command sspprof is the profiling pass of Figure 1: it runs a binary on
// the cycle-level simulator and writes the feedback bundle (cache profile,
// block frequencies, dynamic call graph) that cmd/sspgen consumes.
//
// With -hot-blocks it instead prints the top-N basic blocks by dynamic
// instruction share (from the same profile's instruction counts), annotated with what
// the closure-threaded execution core compiled each block to — chain nodes,
// fused constituents, exit width — so superinstruction fusion coverage on
// the actually-hot code is inspectable per benchmark.
//
// Usage:
//
//	sspprof -in prog.ssp -out prog.prof.json
//	sspprof -bench mcf -out mcf.prof.json
//	sspprof -bench mcf -scale test -hot-blocks 10
//
// The profile is the one exp.Suite takes of every program it runs: the
// in-order profiling run at the named scale (-scale paper, the Table 1
// machine and working sets, or -scale test), watchdog, answer checksum and
// conservation check included.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"ssp/internal/cliutil"
	"ssp/internal/exp"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/ssp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "sspprof:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("sspprof", flag.ExitOnError)
	var (
		in    = fs.String("in", "", "input assembly file")
		bench = fs.String("bench", "", "built-in benchmark name (see cmd/experiments)")
		scale = fs.String("scale", "paper", "experiment scale: paper or test")
		out   = fs.String("out", "", "output profile path (default stdout)")
		hot   = fs.Int("hot-blocks", 0, "print the top-N blocks by dynamic instruction share instead of a profile bundle")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with status 2
	input, err := cliutil.ReadInput(*in, *bench, *scale)
	if err != nil {
		return err
	}
	orig, _, pr, dp, err := exp.NewSuite(input.Scale).Original(context.Background(), input.Bench, input.Src)
	if err != nil {
		return err
	}
	if *hot > 0 {
		hotBlocks(stdout, pr, dp, *hot)
		return nil
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
	if err := pr.Save(w); err != nil {
		return err
	}
	// The loads the tool would target: ranked per hot region (§2.2's cutoff
	// within each), as ssp.Adapt ranks them.
	dels := ssp.RankTargets(orig, pr, ssp.DefaultOptions())
	fmt.Fprintf(stderr, "profiled %d cycles; %d loads cover >=90%% of %d miss cycles: %v\n",
		pr.Cycles, len(dels), pr.TotalMissCycles, dels)
	return nil
}

// hotBlocks aggregates the profile's main-thread instruction counts over the
// threaded core's basic blocks of dp, the profiled image, and prints the
// top-N by dynamic instruction share with each block's compiled-chain shape.
func hotBlocks(w io.Writer, pr *profile.Profile, dp *decode.Program, n int) {
	img := dp.Img
	tp := sim.ThreadedProgram(dp)
	type row struct {
		block  int
		instrs uint64
	}
	var total uint64
	rows := make([]row, len(tp.Blocks))
	for bi := range tp.Blocks {
		rows[bi].block = bi
	}
	// Instruction IDs are unique within a program, so each PC's count is
	// its instruction's.
	for pc := range img.Code {
		count := pr.InstrFreq[img.Code[pc].I.ID]
		total += count
		rows[tp.BlockOf[pc]].instrs += count
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].instrs != rows[j].instrs {
			return rows[i].instrs > rows[j].instrs
		}
		return rows[i].block < rows[j].block
	})
	if n > len(rows) {
		n = len(rows)
	}
	fmt.Fprintf(w, "hot blocks: top %d of %d by main-thread dynamic instruction share (%d instrs total)\n",
		n, len(rows), total)
	fmt.Fprintf(w, "%4s  %7s  %7s  %12s  %-24s  %-11s  %s\n",
		"rank", "share", "cum", "instrs", "block", "pcs", "chain")
	var cum float64
	for i := 0; i < n; i++ {
		r := rows[i]
		if r.instrs == 0 {
			break
		}
		b := &tp.Blocks[r.block]
		share := 100 * float64(r.instrs) / float64(total)
		cum += share
		chain := fmt.Sprintf("nodes=%d fused=%d exit=%d", len(b.Body()), b.NBody, b.End-b.Start-b.NBody)
		if len(b.LoadPCs) > 0 {
			chain += fmt.Sprintf(" loads=%d", len(b.LoadPCs))
		}
		fmt.Fprintf(w, "%4d  %6.2f%%  %6.2f%%  %12d  %-24s  %-11s  %s\n",
			i+1, share, cum, r.instrs, img.BlockKey(int(b.Start)), fmt.Sprintf("[%d,%d)", b.Start, b.End), chain)
	}
}
