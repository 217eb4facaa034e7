// Package cliutil holds the input plumbing shared by the command-line
// tools: loading programs from assembly files or from the built-in
// benchmark generators, and selecting machine configurations.
package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/workloads"
)

// LoadProgram returns a program from an assembly file (in) or from a
// built-in benchmark generator (bench at the given scale; scale 0 selects
// the benchmark's default experiment scale). Exactly one of in and bench
// must be set.
//
// For benchmark inputs the second return is the expected final checksum the
// program stores to workloads.ResultAddr, so callers can verify a run
// computed the right answer. Assembly files carry no expected value; the
// checksum is 0 and not meaningful for them.
func LoadProgram(in, bench string, scale int) (*ir.Program, uint64, error) {
	switch {
	case in != "" && bench != "":
		return nil, 0, fmt.Errorf("specify either -in or -bench, not both")
	case in != "":
		src, err := os.ReadFile(in)
		if err != nil {
			return nil, 0, err
		}
		p, err := ir.Parse(string(src))
		return p, 0, err
	case bench != "":
		spec, err := workloads.ByName(bench)
		if err != nil {
			return nil, 0, err
		}
		if scale == 0 {
			scale = spec.Scale
		}
		p, want := spec.Build(scale)
		return p, want, nil
	}
	return nil, 0, fmt.Errorf("specify -in FILE or -bench NAME")
}

// StartProfiles begins host-side CPU and/or heap profiling for a tool run
// (the -cpuprofile/-memprofile flags of cmd/experiments and cmd/sspcheck).
// Either path may be empty to skip that profile. The returned stop function
// must run before exit and finishes both profiles: it stops the CPU profile
// and writes an allocs-focused heap profile after a final GC, so hot-path
// work on the simulator is measured rather than guessed.
//
// stop is idempotent (extra calls are no-ops), so callers can both defer it
// and call it on early-exit paths without double-finishing a profile. The
// one pattern it cannot survive is os.Exit before any call — deferred
// functions don't run then — which is why the commands keep their work in a
// run() error function and only os.Exit from main after it returns.
func StartProfiles(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuFile != nil {
				pprof.StopCPUProfile()
				cpuFile.Close()
			}
			if memPath != "" {
				f, err := os.Create(memPath)
				if err != nil {
					fmt.Fprintln(os.Stderr, "memprofile:", err)
					return
				}
				defer f.Close()
				runtime.GC() // materialize the live heap before snapshotting
				if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
					fmt.Fprintln(os.Stderr, "memprofile:", err)
				}
			}
		})
	}, nil
}

// MachineConfig builds a simulator configuration for "in-order" or "ooo",
// optionally with the scaled-down test memory system.
func MachineConfig(model string, tiny bool) (sim.Config, error) {
	m, err := sim.ParseModel(model)
	if err != nil {
		return sim.Config{}, err
	}
	c := sim.DefaultInOrder()
	if m == sim.OOO {
		c = sim.DefaultOOO()
	}
	if tiny {
		c.UseTinyMem()
	}
	return c, nil
}
