// Command sspprof is the profiling pass of Figure 1: it runs a binary on
// the cycle-level simulator and writes the feedback bundle (cache profile,
// block frequencies, dynamic call graph) that cmd/sspgen consumes.
//
// With -hot-blocks it instead prints the top-N linked blocks by dynamic
// instruction share, from the same profile's instruction counts.
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
	"ssp/internal/ir"
	"ssp/internal/profile"
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
		hotBlocks(stdout, pr, dp.Img, *hot)
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
// linked blocks of img, the profiled image, and prints the top-N by dynamic
// instruction share.
func hotBlocks(w io.Writer, pr *profile.Profile, img *ir.Image, n int) {
	type row struct {
		block      int
		start, end int
		instrs     uint64
	}
	var total uint64
	rows := make([]row, len(img.BlockKeys()))
	for bi := range rows {
		rows[bi].block = bi
	}
	// Instruction IDs are unique within a program, so each PC's count is
	// its instruction's. A linked block's PCs are contiguous.
	for pc := len(img.Code) - 1; pc >= 0; pc-- {
		count := pr.InstrFreq[img.Code[pc].I.ID]
		total += count
		r := &rows[img.BlockOf[pc]]
		r.instrs += count
		if r.end == 0 {
			r.end = pc + 1
		}
		r.start = pc
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
	fmt.Fprintf(w, "%4s  %7s  %7s  %12s  %-24s  %s\n", "rank", "share", "cum", "instrs", "block", "pcs")
	var cum float64
	for i := 0; i < n; i++ {
		r := rows[i]
		if r.instrs == 0 {
			break
		}
		share := 100 * float64(r.instrs) / float64(total)
		cum += share
		fmt.Fprintf(w, "%4d  %6.2f%%  %6.2f%%  %12d  %-24s  %s\n",
			i+1, share, cum, r.instrs, img.BlockKey(r.start), fmt.Sprintf("[%d,%d)", r.start, r.end))
	}
}
