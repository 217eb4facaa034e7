// Command sspcheck is the fuzzing front-end of the internal/check validation
// subsystem. Each seed deterministically generates a random pointer-chasing
// program (workloads.RandomProgram) and runs it through check.Seed: the
// differential, metamorphic, speculation-safety, lift and
// execution-strategy layers, on the original and on its adaptations under
// the default and a seed-derived SSP option mix; every simulation result
// also passes the conservation invariants. Each program runs once per
// machine model and strategy point; the differential, metamorphic and
// dynamic safety checks read the strategy layer's reference runs.
//
// Usage:
//
//	sspcheck -seeds 500             # seeds 0..499 (make sspcheck)
//	sspcheck -seed 17 -v            # reproduce one failure
//	sspcheck -seeds 64 -full        # Table 1 memory system instead of tiny
//
// Seeds run on runtime.GOMAXPROCS(0) goroutines; results are reported in
// seed order. A violation prints its seed and exits non-zero; rerunning with
// -seed N reproduces it exactly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"ssp/internal/check"
	"ssp/internal/cliutil"
)

// options selects what one sweep runs.
type options struct {
	seeds, start int64
	seed         int64 // >= 0 checks that single seed instead
	full         bool
	verbose      bool
}

// sweep runs check.Seed over the seed range on runtime.GOMAXPROCS(0)
// goroutines and returns how many seeds were checked and how many failed.
// Progress goes to out, violations to errw, both in seed order.
func sweep(o options, out, errw io.Writer) (total int64, failures int) {
	cfgs := check.Configs(!o.full)
	lo, hi := o.start, o.start+o.seeds
	if o.seed >= 0 {
		lo, hi = o.seed, o.seed+1
	}

	// Each seed reports through its own channel, so the reporter can read
	// results in seed order while the workers finish them in any order.
	results := make([]chan error, max(hi-lo, 0))
	for i := range results {
		results[i] = make(chan error, 1)
	}
	seeds := make(chan int64)
	go func() {
		defer close(seeds)
		for s := lo; s < hi; s++ {
			seeds <- s
		}
	}()
	var wg sync.WaitGroup
	defer wg.Wait()
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range seeds {
				results[s-lo] <- check.Seed(s, cfgs)
			}
		}()
	}
	for i, ch := range results {
		s, err := lo+int64(i), <-ch
		if err != nil {
			failures++
			fmt.Fprintln(errw, "sspcheck: FAIL", err)
			continue
		}
		if o.verbose {
			fmt.Fprintf(out, "seed %d: ok\n", s)
		}
	}
	total = hi - lo
	if failures == 0 {
		fmt.Fprintf(out, "sspcheck: %d seeds passed every layer\n", total)
	}
	return total, failures
}

func main() {
	var o options
	flag.Int64Var(&o.seeds, "seeds", 32, "number of seeds to sweep, starting at -start")
	flag.Int64Var(&o.start, "start", 0, "first seed of the sweep")
	flag.Int64Var(&o.seed, "seed", -1, "check a single seed (overrides -seeds)")
	flag.BoolVar(&o.full, "full", false, "use the full Table 1 memory system instead of the test sizing")
	flag.BoolVar(&o.verbose, "v", false, "print each seed as it passes")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProf := flag.String("memprofile", "", "write an allocation profile of the sweep to this file")
	flag.Parse()
	if err := run(o, *cpuProf, *memProf); err != nil {
		fmt.Fprintln(os.Stderr, "sspcheck:", err)
		os.Exit(1)
	}
}

// run does the whole sweep behind a single error return, so main's os.Exit
// never skips the deferred profile stop (an exit mid-profile truncates the
// CPU profile and loses the heap snapshot entirely).
func run(o options, cpuProf, memProf string) error {
	stopProf, err := cliutil.StartProfiles(cpuProf, memProf)
	if err != nil {
		return err
	}
	defer stopProf()
	total, failures := sweep(o, os.Stdout, os.Stderr)
	if failures > 0 {
		return fmt.Errorf("%d/%d seeds failed", failures, total)
	}
	return nil
}
