GO ?= go

.PHONY: check fmt vet test race alloc-gate bench-module bench bench-diff bench-smoke bench-gate sspcheck fuzz-smoke cover serve-smoke serve-load tune-smoke tune-bench table2 table2-check tools-smoke exhibits-check

# check is the full gate: formatting, vet, the test suite under the race
# detector (the concurrent experiment engine is exercised by internal/exp's
# determinism and coalescing tests), the allocation-regression gate (the race
# run skips it — instrumentation allocates), the benchmark module's vet and
# tests, the 500-seed validation sweep the CI check job runs (sspcheck), a
# short native-fuzzing smoke of the parser, the adaptation tool, the safety
# certifier on untrusted IR and the isolation its certificate claims, and the
# interpreter's fused runs against its per-PC loop, Figure 1's
# file flow through the command-line tools (tools-smoke), and the gates CI
# runs as jobs of their own: the benchmark's serve workloads at smoke size,
# every served result checked against the golden stats (serve-smoke), the
# closed-loop tuner
# (tune-smoke), the paper-scale Table 2 envelope (table2-check), and the
# pinned paper-scale exhibits (exhibits-check).
check: fmt vet race alloc-gate bench-module sspcheck fuzz-smoke tools-smoke serve-smoke tune-smoke table2-check exhibits-check

# bench-module vets and tests the benchmark under bench/, a module of its own
# (replace ssp => ../) that the root module's build and tests never compile:
# an API slip in exp, serve, or tune would otherwise surface only when the
# benchmark runs.
bench-module:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# sspcheck is the validation sweep (check.Seed): per seed, a random program
# and its adaptations under the default and a seed-derived option mix pass
# the differential, metamorphic and conservation layers; the
# speculation-safety layer (static budget certificates, the dynamic budget
# oracle on both engines, every injected violation class rejected as that
# class); the lift layer (adapting a lifted image, and relifting an adapted
# one, keep the image digest); and the execution-strategy layer (the whole
# Result bit for bit with fast-forward on or off, a fresh or a shared
# decode, a fresh or a Reset-reused machine, and a profiled run; the
# interpreter with its fused runs against its per-PC loop). Each program runs
# once per model and strategy point and nowhere else: the profile the
# adaptations start from comes from the original's profiled lattice run, and
# the differential, metamorphic and oracle checks read the strategy layer's
# reference runs. Reproduce a reported failure with:
# go run ./cmd/sspcheck -seed N
sspcheck:
	$(GO) run ./cmd/sspcheck -seeds 500

# alloc-gate runs the allocation-regression tests without the race detector
# (whose instrumentation allocates): the per-access hot path must stay at
# exactly zero allocations, warm engine reruns and a served cache hit under
# their hard ceilings.
alloc-gate:
	$(GO) test -count=1 -run 'Allocs' ./internal/sim/... ./internal/serve

# fuzz-smoke gives each native fuzz target a short budget beyond its checked-in
# corpus; a real campaign uses -fuzztime as long as you can afford.
fuzz-smoke:
	$(GO) test ./internal/ir -run '^$$' -fuzz FuzzParseAsmRoundTrip -fuzztime 30s
	$(GO) test ./internal/ssp -run '^$$' -fuzz FuzzAdaptRandomProgram -fuzztime 30s
	$(GO) test ./internal/ssp -run '^$$' -fuzz FuzzAnalyzeSafety -fuzztime 30s
	$(GO) test ./internal/check -run '^$$' -fuzz FuzzCertifiedIsolation -fuzztime 30s
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

# serve-smoke is the CI-sized exercise of the serving layer: the benchmark's
# serve-hot and serve-cold workloads (bench/) at smoke size, each against an
# in-process sspserved over loopback HTTP with some jobs streamed over SSE.
# serve-hot prewarms the 48-cell test-scale matrix and then requires every
# reply to be a cache hit equal to golden_stats.json; serve-cold submits
# distinct option and source jobs, requires a 422 for each unsafe mutant
# among them and a fresh result for every other job, and recomputes a
# sample outside the server. The benchmark exits 1 when any record is not
# correct.
serve-smoke:
	bash bench/run.sh -smoke -workload serve-hot,serve-cold

# serve-load is the full-size serve-hot workload: 80,000 cache-hit jobs over
# loopback, golden-checked, printed as the benchmark's metric lines
# (jobs_per_s, latency quantiles). Not wired into CI (timing noise). It
# writes no file; BENCH_serve.json's note says where its numbers came from.
serve-load:
	bash bench/run.sh -workload serve-hot

# tune-smoke is the CI-sized exercise of the closed-loop tuner: the quick
# grid on mcf at test scale, two re-profiling rounds per candidate. Every
# round passes the metamorphic/conservation gates or the run fails, and
# -require-converged makes a non-converging search a hard failure. The
# second run gives the suite a single simulation slot (-workers 1), the
# tightest bound under which every grid point's machines must still run to
# completion.
tune-smoke:
	$(GO) run ./cmd/ssptune -scale test -bench mcf -rounds 2 -grid quick -quiet -require-converged
	$(GO) run ./cmd/ssptune -scale test -bench mcf -rounds 2 -grid quick -workers 1 -require-converged

# tools-smoke runs Figure 1's file flow end to end through the command-line
# tools at test scale: sspprof writes mcf's profile, sspgen adapts mcf with
# that profile, and simrun runs the adapted binary after checking it with
# the differential layer (-check). Any error fails it. The files live in a
# temporary directory.
tools-smoke:
	@d=$$(mktemp -d) && trap 'rm -rf "$$d"' EXIT && set -x && \
	$(GO) run ./cmd/sspprof -bench mcf -scale test -out $$d/p.json && \
	$(GO) run ./cmd/sspgen -bench mcf -scale test -profile $$d/p.json -out $$d/e.ssp && \
	$(GO) run ./cmd/simrun -in $$d/e.ssp -scale test -check

# tune-bench runs the full options grid on mcf at paper scale (the §4.5
# configuration) and writes BENCH_tune.json: the best configuration and the
# per-round speedup trajectory of every candidate. Takes minutes; not wired
# into CI. The committed BENCH_tune.json is frozen: it predates the tuner's
# region options, so this target no longer reproduces it byte for byte. Do
# not commit the regenerated file; restore it with git checkout.
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

# exhibits-check pins the paper-scale exhibits byte for byte against
# cmd/testdata: the stdout of `experiments -scale paper -quiet` (every
# exhibit table) and the JSON of `ssptune -bench mcf,rand.2p -rounds 3 -grid
# full -json` (the tune-paper grid). About 25 s on two cores, so the tier-1
# suite skips both tests; after an intended change to the numbers,
# regenerate the two files with those commands and commit them.
exhibits-check:
	SSP_EXHIBITS=1 $(GO) test -count=1 -run 'TestPaperExhibits|TestPaperTune' ./cmd/experiments ./cmd/ssptune

# bench-smoke runs each internal/sim microbenchmark for a single iteration —
# just enough to catch an execution-core change that breaks or pathologically
# slows the benchmarks (or starts allocating on the hot path: -benchmem keeps
# allocs/op visible in the CI log), without CI-grade noise-sensitive timing.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x -benchmem ./internal/sim/...

# bench-gate is the benchstat-style regression gate on the execution core,
# with ratios measured in-process (machine-portable, unlike raw ns/op): the
# interpreter's speedup with fused runs over its per-PC loop on the ALU loop
# and the in-order engine's batch-issue ratio must not fall more than 10%
# below their baselines in BENCH_sim.json ("threaded".gate), and each cycle
# engine's ns per simulated cycle, on mcf with fast-forward and on the
# dense-issue ALU loop, over the per-PC interpreter loop's ns per
# instruction on the ALU loop, must not rise more than 10% above its
# baselines ("inorder".cost_gate, "ooo".cost_gate). CI runs it in the
# bench-smoke job.
bench-gate:
	SSP_BENCH_GATE=1 $(GO) test -count=1 -run 'TestThreadedSpeedupGate|TestEngineCostGate' -v ./internal/sim
