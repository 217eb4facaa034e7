// Command sspcheck is the fuzzing front-end of the internal/check validation
// subsystem. Each seed deterministically generates a random pointer-chasing
// program (workloads.RandomProgram), runs it through the cross-engine
// differential layer, adapts it with a seed-derived SSP option mix, and runs
// the adapted binary through the differential and metamorphic layers; every
// simulation result also passes the conservation invariants.
//
// Usage:
//
//	sspcheck -seeds 32              # seeds 0..31
//	sspcheck -seed 17 -v            # reproduce one failure
//	sspcheck -seeds 64 -full        # Table 1 memory system instead of tiny
//	sspcheck -seeds 500 -strategy   # execution-strategy equivalence sweep instead
//	sspcheck -seeds 32 -safety      # speculation-safety sweep instead
//
// Seeds run on runtime.GOMAXPROCS(0) goroutines; results are reported in
// seed order. A violation prints its seed and exits non-zero; rerunning with
// -seed N reproduces it exactly.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"ssp/internal/check"
	"ssp/internal/cliutil"
	"ssp/internal/sim"
)

// options selects what one sweep runs.
type options struct {
	seeds, start int64
	seed         int64 // >= 0 checks that single seed instead
	full         bool
	strategy     bool
	safety       bool
	verbose      bool
}

// layer returns the per-seed check the mode flags select and its name for
// the summary line. At most one mode flag may be set.
func (o options) layer() (func(int64, []sim.Config) error, string, error) {
	switch {
	case o.strategy && o.safety:
		return nil, "", errors.New("-strategy and -safety are separate modes; pass at most one")
	case o.strategy:
		return check.StrategySeed, "the execution-strategy-equivalence layer", nil
	case o.safety:
		return check.SafetySeed, "the speculation-safety layer", nil
	}
	return check.Seed, "all three layers", nil
}

// sweep runs the selected check layer over the seed range on
// runtime.GOMAXPROCS(0) goroutines and returns how many seeds were checked
// and how many failed. Progress goes to out, violations to errw, both in
// seed order.
func sweep(o options, out, errw io.Writer) (total int64, failures int, err error) {
	checkSeed, layers, err := o.layer()
	if err != nil {
		return 0, 0, err
	}
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
				results[s-lo] <- checkSeed(s, cfgs)
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
		fmt.Fprintf(out, "sspcheck: %d seeds passed %s\n", total, layers)
	}
	return total, failures, nil
}

func main() {
	var o options
	flag.Int64Var(&o.seeds, "seeds", 32, "number of seeds to sweep, starting at -start")
	flag.Int64Var(&o.start, "start", 0, "first seed of the sweep")
	flag.Int64Var(&o.seed, "seed", -1, "check a single seed (overrides -seeds)")
	flag.BoolVar(&o.full, "full", false, "use the full Table 1 memory system instead of the test sizing")
	flag.BoolVar(&o.strategy, "strategy", false, "run the execution-strategy-equivalence layer (threaded, fast-forward, decode sharing, machine reuse, stats off) per seed instead of the differential/metamorphic layers")
	flag.BoolVar(&o.safety, "safety", false, "run the speculation-safety layer (static budget certificates, dynamic budget oracle, adversarial mutants) per seed instead of the differential/metamorphic layers")
	flag.BoolVar(&o.verbose, "v", false, "print each seed as it passes")
	cpuProf := flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
	memProf := flag.String("memprofile", "", "write an allocation profile of the sweep to this file")
	flag.Parse()
	if _, _, err := o.layer(); err != nil {
		fmt.Fprintln(os.Stderr, "sspcheck:", err)
		os.Exit(2)
	}
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
	total, failures, err := sweep(o, os.Stdout, os.Stderr)
	if err != nil {
		return err
	}
	if failures > 0 {
		return fmt.Errorf("%d/%d seeds failed", failures, total)
	}
	return nil
}
