// Package cliutil holds the plumbing shared by the command-line tools: the
// program a tool runs, named as a served job names it, and host-side
// profiling of a tool run.
package cliutil

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"ssp/internal/exp"
	"ssp/internal/ir"
)

// Input is the program a tool runs, named as a served job names it: a
// built-in benchmark (Bench) or the text (Src) of an assembly file (Path),
// at a named scale. Tools that simulate resolve it through an exp.Suite at
// Scale, the one pipeline every run goes through.
type Input struct {
	Bench, Path, Src string
	Scale            exp.Scale
}

// ReadInput resolves the -in FILE, -bench NAME and -scale paper|test flags
// the tools share. Exactly one of in and bench must be set.
func ReadInput(in, bench, scale string) (Input, error) {
	s, err := exp.ParseScale(scale)
	if err != nil {
		return Input{}, err
	}
	i := Input{Bench: bench, Path: in, Scale: s}
	switch {
	case in != "" && bench != "":
		return i, fmt.Errorf("specify either -in or -bench, not both")
	case in != "":
		src, err := os.ReadFile(in)
		if err == nil && len(src) == 0 {
			err = fmt.Errorf("%s: empty file", in) // an empty Src names no program
		}
		i.Src = string(src)
		return i, err
	case bench == "":
		return i, fmt.Errorf("specify -in FILE or -bench NAME")
	}
	return i, nil
}

// Load returns the input's program without simulating it: the file parsed,
// or the benchmark built at the input's scale (exp.Build).
func (i Input) Load() (*ir.Program, error) {
	if i.Path != "" {
		return ir.Parse(i.Src)
	}
	p, _, err := exp.Build(i.Bench, i.Scale)
	return p, err
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
