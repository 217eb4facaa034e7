GO ?= go

.PHONY: check fmt vet test race alloc-gate bench-module bench bench-diff bench-smoke bench-gate sspcheck predecode-sweep fastforward-sweep hotpath-sweep safety-sweep threaded-sweep fuzz-smoke cover serve-smoke serve-load tune-smoke tune-bench table2 table2-check

# check is the full gate: formatting, vet, the test suite under the race
# detector (the concurrent experiment engine is exercised by internal/exp's
# determinism and coalescing tests), the allocation-regression gate (the race
# run skips it — instrumentation allocates), the differential/metamorphic
# fuzz sweep over 32 fixed seeds (internal/check), the 500-seed fast-forward
# equivalence sweep, the 200-seed hot-path/machine-reuse equivalence sweep,
# the 32-seed speculation-safety sweep (static budget certificates, dynamic
# budget oracle, adversarial mutants), the 200-seed threaded-core
# equivalence sweep, and a short native-fuzzing smoke of the parser, the
# adaptation tool, and the threaded execution core; and the benchmark
# module's vet and tests.
check: fmt vet race alloc-gate bench-module sspcheck fastforward-sweep hotpath-sweep safety-sweep threaded-sweep fuzz-smoke

# bench-module vets and tests the benchmark under bench/, a module of its own
# (replace ssp => ../) that the root module's build and tests never compile:
# an API slip in exp, serve, or tune would otherwise surface only when the
# benchmark runs.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# sspcheck runs 32 seeded random programs through all three validation
# layers; reproduce a reported failure with: go run ./cmd/sspcheck -seed N
sspcheck:
	$(GO) run ./cmd/sspcheck -seeds 32

# predecode-sweep is the regression gate for the decode-once execution core:
# fresh vs shared vs stats-off machines must agree bit-for-bit per seed.
predecode-sweep:
	$(GO) run ./cmd/sspcheck -seeds 32 -predecode

# fastforward-sweep is the regression gate for the stall-aware fast-forward
# timing core: per-cycle vs fast-forwarded runs must agree bit-for-bit —
# cycles, breakdowns, histograms, and memory statistics — on the original and
# SSP-adapted program of every seed, under both machine models.
fastforward-sweep:
	$(GO) run ./cmd/sspcheck -seeds 500 -fastforward

# hotpath-sweep is the regression gate for the flattened hot-path data layout
# and the exp.Suite machine pool: a single machine Reset and reused across
# models and programs must agree bit-for-bit with fresh machines — cycles,
# breakdowns, histograms, and per-load memory statistics — on the original
# and SSP-adapted program of every seed.
hotpath-sweep:
	$(GO) run ./cmd/sspcheck -seeds 200 -hotpath

# safety-sweep is the regression gate for the speculation-safety verifier:
# per seed, every adapted slice must carry a violation-free static budget
# certificate, a dynamic run on both engines under the budget oracle must
# stay inside it, and every injected violation class must be rejected with
# exactly that class.
safety-sweep:
	$(GO) run ./cmd/sspcheck -seeds 32 -safety

# threaded-sweep is the regression gate for the closure-threaded execution
# core: per seed, interpreting and simulating over compiled per-block chains
# must agree bit-for-bit with table dispatch — entire Result, original and
# SSP-adapted program, both machine models, fresh/shared/rerun/stats-off
# machines, fast-forward off and on.
threaded-sweep:
	$(GO) run ./cmd/sspcheck -seeds 200 -threaded

# alloc-gate runs the allocation-regression tests without the race detector
# (whose instrumentation allocates): the per-access hot path must stay at
# exactly zero allocations, warm engine reruns under their hard ceilings.
alloc-gate:
	$(GO) test -count=1 -run 'Allocs' ./internal/sim/...

# fuzz-smoke gives each native fuzz target a short budget beyond its checked-in
# corpus; a real campaign uses -fuzztime as long as you can afford.
fuzz-smoke:
	$(GO) test ./internal/ir -run '^$$' -fuzz FuzzParseAsmRoundTrip -fuzztime 30s
	$(GO) test ./internal/ssp -run '^$$' -fuzz FuzzAdaptRandomProgram -fuzztime 30s
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzThreadedEquivalence -fuzztime 30s

# cover enforces the coverage floor over the whole module (statement coverage,
# all packages counted against all tests).
# The profile lands under the git-ignored .cover/ so a stale cover.out can
# never end up sitting in (or committed to) the repo root again.
cover:
	@mkdir -p .cover
	$(GO) test -count=1 -coverprofile=.cover/cover.out -coverpkg=./... ./...
	@total=$$($(GO) tool cover -func=.cover/cover.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t=$$total 'BEGIN { if (t + 0 < 70) { printf "coverage %.1f%% is below the 70%% floor\n", t; exit 1 } printf "coverage %.1f%% (floor 70%%)\n", t }'

fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench runs the experiment-level benchmarks (repo root) and the engine
# microbenchmarks (internal/sim, internal/sim/mem) with allocation counts —
# the numbers BENCH_sim.json tracks. Save a run with: make bench | tee out.txt
bench:
	$(GO) test -bench=. -benchmem .
	$(GO) test -run '^$$' -bench=. -benchmem ./internal/sim/...

# bench-diff compares two saved `make bench` outputs with benchstat.
# Usage: make bench BENCH_OUT=/tmp/before.txt ... make bench-diff \
#        BENCH_BEFORE=/tmp/before.txt BENCH_AFTER=/tmp/after.txt
BENCH_BEFORE ?= bench.before.txt
BENCH_AFTER ?= bench.after.txt
bench-diff:
	@if command -v benchstat >/dev/null 2>&1; then \
		benchstat $(BENCH_BEFORE) $(BENCH_AFTER); \
	else \
		echo "benchstat not installed; falling back to side-by-side grep"; \
		echo "--- $(BENCH_BEFORE)"; grep '^Benchmark' $(BENCH_BEFORE); \
		echo "--- $(BENCH_AFTER)"; grep '^Benchmark' $(BENCH_AFTER); \
	fi

# serve-smoke is the CI-sized exercise of the serving layer: an in-process
# sspserved fed 3 passes over the full 48-cell matrix, every result validated
# byte-for-byte against the golden-stats baseline. Fails on any request
# error, any golden divergence, or a memo hit rate at or below 50%.
serve-smoke:
	$(GO) run ./cmd/serveload -jobs 144 -conc 8

# serve-load is the full load test behind BENCH_serve.json: 2500 concurrent
# jobs against an in-process server, golden-validated, with throughput,
# latency quantiles, and hit rate recorded. Not wired into CI (timing noise);
# run it when touching internal/serve and commit the refreshed numbers.
serve-load:
	$(GO) run ./cmd/serveload -jobs 2500 -conc 32 -out BENCH_serve.json

# tune-smoke is the CI-sized exercise of the closed-loop tuner: the quick
# grid on mcf at test scale, two re-profiling rounds per candidate. Every
# round passes the metamorphic/conservation gates or the run fails, and
# -require-converged makes a non-converging search a hard failure.
tune-smoke:
	$(GO) run ./cmd/ssptune -scale test -bench mcf -rounds 2 -grid quick -quiet -require-converged

# tune-bench regenerates BENCH_tune.json: the full options grid on mcf at
# paper scale (the §4.5 configuration), recording the best configuration and
# the per-round speedup trajectory of every candidate. Takes minutes; not
# wired into CI. Run it when touching internal/tune or the adaptation tool
# and commit the refreshed numbers.
tune-bench:
	$(GO) run ./cmd/ssptune -scale paper -bench mcf -rounds 3 -grid full -require-converged -out BENCH_tune.json

# table2 regenerates TABLE2.txt: the paper-scale slice-portfolio statistics
# (per-benchmark Table 2 rows with the paper's numbers alongside, plus the
# per-slice breakdown) with the envelope check on, so a stale TABLE2.txt can
# never hide an out-of-envelope portfolio. Run it when touching internal/ssp
# or the workloads and commit the refreshed table.
table2:
	$(GO) run ./cmd/experiments -scale paper -only table2 -envelope -quiet > TABLE2.txt
	@cat TABLE2.txt

# table2-check is the CI-sized fidelity gate on the paper's Table 2: the
# paper-scale portfolio must stay inside the envelope — slice sizes 7-15,
# live-ins 1-4, distinct trigger sites per benchmark, and every multi-phase
# benchmark holding its minimum slice count.
table2-check:
	$(GO) run ./cmd/experiments -scale paper -only table2 -envelope -quiet >/dev/null

# bench-smoke runs each internal/sim microbenchmark for a single iteration —
# just enough to catch an execution-core change that breaks or pathologically
# slows the benchmarks (or starts allocating on the hot path: -benchmem keeps
# allocs/op visible in the CI log), without CI-grade noise-sensitive timing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/sim/...

# bench-gate is the benchstat-style regression gate on the threaded execution
# core: the threaded/table speedup ratios (machine-portable, unlike raw
# ns/op) are re-measured in-process and must not fall more than 10% below
# the baselines committed in BENCH_sim.json ("threaded".gate). CI runs it in
# the bench-smoke job.
bench-gate:
	SSP_BENCH_GATE=1 $(GO) test -count=1 -run TestThreadedSpeedupGate -v ./internal/sim
