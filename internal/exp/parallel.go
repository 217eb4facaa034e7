package exp

import (
	"context"
	"runtime"
	"sync"

	"ssp/internal/sim"
)

// The per-key singleflight memoization behind the suite's caches lives in
// internal/flight (flight.Cell), shared with the serving layer. Simulation
// is deterministic, so a failed cell's error is cached — retrying would only
// reproduce the failure; the exceptions are cancellation and transient
// errors, which flight deliberately does not cache.

// RunAll presimulates the given matrix cells on a pool of workers, filling
// the suite's caches so subsequent serial Run/Speedup calls are hits.
// workers <= 0 means runtime.GOMAXPROCS(0). A worker resolves one cell at a
// time, adapting and linking outside any slot; its simulations take the
// suite's Workers slots like every other, so workers above Suite.Workers
// only overlap build work with the running machines. Duplicate keys are
// deduplicated up front (the per-cell singleflight would coalesce them
// anyway, but a duplicate would occupy a worker for the duration of the
// first run).
//
// Every cell is attempted even when some fail; the returned error is the
// first failure in key order, so the outcome is deterministic regardless of
// scheduling.
func (s *Suite) RunAll(keys []RunKey, workers int) error {
	return s.RunAllContext(context.Background(), keys, workers)
}

// RunAllContext is RunAll under a context. Once the context is cancelled,
// in-flight cells stop promptly (sim-level cancellation), queued cells are
// not started, and the first error in key order — here, ctx.Err() — is
// returned. Cancelled cells are not cached, so a later RunAll recomputes
// them.
func (s *Suite) RunAllContext(ctx context.Context, keys []RunKey, workers int) error {
	keys = dedupKeys(keys)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	if len(keys) == 0 {
		return nil
	}
	errs := make([]error, len(keys))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				k := keys[i]
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				_, errs[i] = s.RunContext(ctx, k.Bench, k.Model, k.Variant)
			}
		}()
	}
	for i := range keys {
		work <- i
	}
	close(work)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func dedupKeys(keys []RunKey) []RunKey {
	seen := make(map[RunKey]bool, len(keys))
	out := keys[:0:0]
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// Cross returns the full benches × models × variants cross product, the
// building block for assembling presimulation work lists.
func Cross(benches []string, models []sim.Model, variants []Variant) []RunKey {
	keys := make([]RunKey, 0, len(benches)*len(models)*len(variants))
	for _, b := range benches {
		for _, m := range models {
			for _, v := range variants {
				keys = append(keys, RunKey{b, m, v})
			}
		}
	}
	return keys
}

// bothModels is the io/ooo pair in driver order.
var bothModels = []sim.Model{sim.InOrder, sim.OOO}

// Fig2Keys lists the cells Figure 2 needs: both models' baselines and the
// two perfect-memory bounds for every paper benchmark.
func Fig2Keys() []RunKey {
	return Cross(PaperBenchmarks(), bothModels, []Variant{VarBase, VarPerfMem, VarPerfDel})
}

// Fig8Keys lists the cells Figures 8, 9, and 10 need: baseline and SSP on
// both models for every paper benchmark.
func Fig8Keys() []RunKey {
	return Cross(PaperBenchmarks(), bothModels, []Variant{VarBase, VarSSP})
}

// Sec45Keys lists the §4.5 cells: baseline, tool, and hand adaptation of
// mcf and health on both models.
func Sec45Keys() []RunKey {
	return Cross([]string{"mcf", "health"}, bothModels, []Variant{VarBase, VarSSP, VarHand})
}

// ablationVariants are the treatments the ablation study compares.
var ablationVariants = []Variant{VarSSP, VarNoChain, VarNoRotate, VarNoPred, VarNoSpec, VarUnroll}

// AblationKeys lists the in-order ablation cells for the given benchmarks
// (nil means the paper benchmarks).
func AblationKeys(benches []string) []RunKey {
	if benches == nil {
		benches = PaperBenchmarks()
	}
	return Cross(benches, []sim.Model{sim.InOrder}, append([]Variant{VarBase}, ablationVariants...))
}

// MatrixKeys is the whole paper matrix — every cell any figure driver
// touches. cmd/experiments and the benchmark harness presimulate it when
// they know they will regenerate everything.
func MatrixKeys() []RunKey {
	keys := Fig2Keys()
	keys = append(keys, Fig8Keys()...)
	keys = append(keys, Sec45Keys()...)
	keys = append(keys, AblationKeys(nil)...)
	return dedupKeys(keys)
}
