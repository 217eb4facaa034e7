// Package tune closes the closed-loop PGO gap the one-shot tool leaves open
// (EXPERIMENTS.md §4.5): the paper's post-pass profiles once, ranks
// delinquent loads once, adapts once. Tune instead runs the adapted image,
// harvests the dense per-load miss-cycle stats from that run itself
// (profile.Rebase), re-ranks the residual delinquent loads with
// ssp.RankTargets — the same per-hot-region portfolio ranking the one-shot
// tool uses, so a region whose misses only become prominent once the first
// portfolio covers the dominant one earns its own slice in a later round —
// re-slices with ssp.AdaptTargets, and iterates until the speedup converges
// (epsilon + max-rounds stopping rule). Every
// round is gated by the check layer: conservation on the round's result
// (inside exp.Suite's execution discipline) and the metamorphic invariant
// against the baseline run, so a bad re-adapt can never regress silently.
//
// On top of the loop sits an options auto-tuner: a small grid over the
// ssp.Options knobs the hand adaptations effectively tuned by eye
// (ChainUnroll, region depth, chain bound), each grid point evaluated with
// its own adaptive loop, all at once under the exp.Suite's Workers slots
// (they bound the machines the search runs), memoized per
// (bench, model, params, options) so repeated tuning requests — the serving
// layer's tune mode — coalesce and hit cache. Round images run through the
// suite's simulation cells, which are keyed by image content: re-adapts
// against residual profiles often land on one image across rounds and grid
// points, and each distinct image is simulated once.
//
// Targets accumulate across rounds (the union of every round's ranking)
// because re-profiling an adapted image shows covered loads as healthy: a
// naive re-adapt from the residual profile alone would drop exactly the
// slices that are working. Accumulation makes the target set monotone, which
// bounds the loop: once no round discovers a new target and the speedup
// delta falls under epsilon, the trajectory has converged.
package tune

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"ssp/internal/check"
	"ssp/internal/exp"
	"ssp/internal/sim"
	"ssp/internal/ssp"
)

// ErrGate marks a tuning round that failed a check-layer invariant. A gate
// violation is a correctness bug (tool or simulator), never a bad
// configuration, so Tune fails the whole search loudly instead of scoring
// around it.
var ErrGate = errors.New("tune: round failed validation gate")

// The tuner's defaults: what a zero Params field means, and the grid a
// search runs when none is named.
const (
	DefaultMaxRounds = 3
	DefaultEpsilon   = 0.02
	DefaultGrid      = "full"
)

// Params bounds one adaptive loop.
type Params struct {
	// MaxRounds caps the re-profiling iterations run after the one-shot
	// adaptation (round 0), so a trajectory holds at most MaxRounds+1
	// entries. Zero means DefaultMaxRounds.
	MaxRounds int
	// Epsilon is the relative speedup-delta convergence threshold: a round
	// that discovers no new targets and moves the speedup by at most
	// Epsilon×previous ends the loop. Zero means DefaultEpsilon.
	Epsilon float64
}

func (p Params) withDefaults() Params {
	if p.MaxRounds <= 0 {
		p.MaxRounds = DefaultMaxRounds
	}
	if p.Epsilon <= 0 {
		p.Epsilon = DefaultEpsilon
	}
	return p
}

// GridPoint is one auto-tuner search point: an option set with a short
// human-readable label (the knobs it changes from the default).
type GridPoint struct {
	Label   string      `json:"label"`
	Options ssp.Options `json:"options"`
}

// Grid returns the search grid of a name: "full" (FullGrid) or "quick"
// (QuickGrid).
func Grid(name string) ([]GridPoint, error) {
	switch name {
	case "full":
		return FullGrid(), nil
	case "quick":
		return QuickGrid(), nil
	}
	return nil, fmt.Errorf("unknown grid %q (want full or quick)", name)
}

// QuickGrid is the smoke-test search: the default configuration plus the
// two cheapest high-yield ChainUnroll points.
func QuickGrid() []GridPoint {
	def := ssp.DefaultOptions()
	u2, u3 := def, def
	u2.ChainUnroll = 2
	u3.ChainUnroll = 3
	return []GridPoint{
		{Label: "default", Options: def},
		{Label: "unroll=2", Options: u2},
		{Label: "unroll=3", Options: u3},
	}
}

// FullGrid is the paper-scale search over the knobs §4.5 attributes the
// auto-vs-hand gap to: chain unrolling (slack widening), region depth
// (interprocedural slack), and the chain countdown bound.
func FullGrid() []GridPoint {
	def := ssp.DefaultOptions()
	pt := func(label string, f func(*ssp.Options)) GridPoint {
		o := def
		f(&o)
		return GridPoint{Label: label, Options: o}
	}
	return []GridPoint{
		{Label: "default", Options: def},
		pt("unroll=2", func(o *ssp.Options) { o.ChainUnroll = 2 }),
		pt("unroll=3", func(o *ssp.Options) { o.ChainUnroll = 3 }),
		pt("unroll=4", func(o *ssp.Options) { o.ChainUnroll = 4 }),
		pt("unroll=2,depth=6", func(o *ssp.Options) { o.ChainUnroll = 2; o.MaxRegionDepth = 6 }),
		pt("unroll=2,bound=256", func(o *ssp.Options) { o.ChainUnroll = 2; o.ChainBound = 256 }),
		pt("unroll=3,bound=256", func(o *ssp.Options) { o.ChainUnroll = 3; o.ChainBound = 256 }),
		pt("depth=6", func(o *ssp.Options) { o.MaxRegionDepth = 6 }),
		pt("bound=64", func(o *ssp.Options) { o.ChainBound = 64 }),
	}
}

// Round is one trajectory entry of the adaptive loop.
type Round struct {
	// Round numbers the iteration; 0 is the one-shot adaptation.
	Round int `json:"round"`
	// Targets is the (cumulative) delinquent set adapted this round.
	Targets []int `json:"targets"`
	// NewTargets lists targets this round's re-profiling discovered.
	NewTargets []int `json:"new_targets,omitempty"`
	// Skipped carries the tool's covered/skipped accounting for the round.
	Skipped []ssp.SkippedLoad `json:"skipped,omitempty"`
	// Regions names the hot regions the round's slice portfolio covers, in
	// slice order without duplicates.
	Regions []string `json:"regions,omitempty"`
	// NewRegions lists regions covered for the first time this round: the
	// re-profiling loop surfaced a hot region the earlier portfolios missed.
	NewRegions []string `json:"new_regions,omitempty"`
	// Slices is the adapted image's p-slice count.
	Slices int `json:"slices"`
	// Cycles is the round's simulated cycle count.
	Cycles int64 `json:"cycles"`
	// Speedup is base cycles over this round's cycles.
	Speedup float64 `json:"speedup"`
	// ResidualMissCycles is the main thread's miss cycles measured from
	// this round's own run — what the image left unprefetched, and the
	// ranking input of the next round.
	ResidualMissCycles uint64 `json:"residual_miss_cycles"`
}

// Candidate is one grid point's evaluated trajectory.
type Candidate struct {
	Label   string      `json:"label"`
	Options ssp.Options `json:"options"`
	Rounds  []Round     `json:"rounds,omitempty"`
	// Best and BestRound locate the trajectory's highest speedup; the
	// tuner answers with the best round's image, not the last (an
	// oscillating loop keeps its peak).
	Best      float64 `json:"best_speedup"`
	BestRound int     `json:"best_round"`
	// Converged reports the loop ended by the stopping rule (no new
	// targets, speedup delta under epsilon) rather than by MaxRounds.
	Converged bool `json:"converged"`
	// Err records a candidate-local failure (an option set the tool
	// rejects); the search continues over the other points.
	Err string `json:"error,omitempty"`
}

// Result is one workload's complete tuning outcome.
type Result struct {
	Bench      string       `json:"bench"`
	Model      string       `json:"model"`
	Scale      string       `json:"scale"`
	BaseCycles int64        `json:"base_cycles"`
	OneShot    float64      `json:"one_shot_speedup"`
	Best       *Candidate   `json:"best"`
	Candidates []*Candidate `json:"candidates"`
}

// Tuner runs tuning searches over one exp.Suite, sharing its caches,
// machine pool, and worker budget. Safe for concurrent use; repeated
// searches of the same (bench, model, params, options) coalesce onto
// memoized candidate cells.
type Tuner struct {
	Suite *exp.Suite
	// Progress, when non-nil, receives one line per completed round. It
	// may be called from many goroutines at once.
	Progress func(format string, args ...any)

	// cands memoizes evaluated grid points under the suite's cache budget.
	cands *exp.Memo[*Candidate]
}

// New returns a Tuner over the given suite.
func New(s *exp.Suite) *Tuner {
	return &Tuner{Suite: s, cands: exp.NewMemo(s, "tune.candidate", candidateBytes)}
}

// candidateBytes approximates what a memoized candidate retains: the
// record and its rounds' target and region lists.
func candidateBytes(c *Candidate) int64 {
	n := int64(512)
	for _, r := range c.Rounds {
		n += 256 + 8*int64(len(r.Targets)+len(r.NewTargets)) + 64*int64(len(r.Skipped)+len(r.Regions)+len(r.NewRegions))
	}
	return n
}

func (t *Tuner) logf(format string, args ...any) {
	if t.Progress != nil {
		t.Progress(format, args...)
	}
}

// Tune evaluates every grid point's adaptive loop for one benchmark and
// model and returns the best configuration with its full trajectory. A nil
// grid means FullGrid. Candidate-local adaptation failures are recorded on
// the candidate; gate violations (ErrGate) abort the whole search.
func (t *Tuner) Tune(ctx context.Context, bench string, model sim.Model, params Params, grid []GridPoint) (*Result, error) {
	params = params.withDefaults()
	if grid == nil {
		grid = FullGrid()
	}
	if len(grid) == 0 {
		return nil, fmt.Errorf("tune: empty grid")
	}
	base, err := t.Suite.RunContext(ctx, bench, model, exp.VarBase)
	if err != nil {
		return nil, fmt.Errorf("tune: baseline %s/%s: %w", bench, model, err)
	}

	// Fan every grid point out at once: the suite's Workers slots bound the
	// machines they run. Round-0 cells of identical option sets coalesce
	// inside the suite.
	cands := make([]*Candidate, len(grid))
	errs := make([]error, len(grid))
	var wg sync.WaitGroup
	for i, gp := range grid {
		wg.Add(1)
		go func(i int, gp GridPoint) {
			defer wg.Done()
			cands[i], errs[i] = t.candidate(ctx, bench, model, params, gp, base)
		}(i, gp)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Context and gate errors are fatal; the first is as good
			// as any (the loop is deterministic).
			return nil, err
		}
	}

	res := &Result{
		Bench:      bench,
		Model:      model.String(),
		Scale:      t.Suite.Scale.String(),
		BaseCycles: base.Cycles,
		Candidates: cands,
	}
	for _, c := range cands {
		if c.Err != "" {
			continue
		}
		if res.Best == nil || c.Best > res.Best.Best {
			res.Best = c
		}
	}
	if res.Best == nil {
		return nil, fmt.Errorf("tune: %s/%s: every grid point failed", bench, model)
	}
	// The one-shot reference: round 0 of the default configuration (cache
	// hit when the grid includes it, one extra cell when it doesn't).
	oneShot, err := t.Suite.RunOptions(ctx, bench, model, ssp.DefaultOptions())
	if err != nil {
		return nil, fmt.Errorf("tune: one-shot reference: %w", err)
	}
	res.OneShot = float64(base.Cycles) / float64(oneShot.Cycles)
	return res, nil
}

// candidate evaluates one grid point through the memoized cell layer.
func (t *Tuner) candidate(ctx context.Context, bench string, model sim.Model, params Params, gp GridPoint, base *sim.Result) (*Candidate, error) {
	key := fmt.Sprintf("%s|%s|%d|%g|%s", bench, model, params.MaxRounds, params.Epsilon, gp.Options.Key())
	c, _, err := t.cands.Do(ctx, key, func(ctx context.Context) (*Candidate, error) {
		return t.loop(ctx, bench, model, params, gp, base)
	})
	return c, err
}

// loop runs the adaptive re-profiling loop for one configuration.
func (t *Tuner) loop(ctx context.Context, bench string, model sim.Model, params Params, gp GridPoint, baseRes *sim.Result) (*Candidate, error) {
	cand := &Candidate{Label: gp.Label, Options: gp.Options}
	opt := gp.Options
	orig, want, prof, _, err := t.Suite.Original(ctx, bench, "")
	if err != nil {
		return nil, err
	}
	baseCycles := baseRes.Cycles

	// Round 0: the ordinary one-shot adaptation, through the suite's
	// options-keyed cells (conservation-checked inside).
	res, err := t.Suite.RunOptions(ctx, bench, model, opt)
	if err != nil {
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		cand.Err = err.Error()
		return cand, nil
	}
	_, rep, err := t.Suite.ProgramOptions(ctx, bench, opt)
	if err != nil {
		return nil, err
	}
	if err := check.MetamorphicResults(baseRes, res); err != nil {
		return nil, fmt.Errorf("%w: %s/%s/%s round 0: %v", ErrGate, bench, model, gp.Label, err)
	}

	targets := append([]int(nil), rep.DelinquentLoads...)
	have := make(map[int]bool, len(targets))
	for _, id := range targets {
		have[id] = true
	}
	regions := sliceRegions(rep)
	seenRegion := make(map[string]bool, len(regions))
	for _, r := range regions {
		seenRegion[r] = true
	}
	resProf := prof.Rebase(res, orig)
	prev := t.record(cand, Round{
		Round:              0,
		Targets:            targets,
		Skipped:            rep.Skipped,
		Regions:            regions,
		Slices:             rep.NumSlices(),
		Cycles:             res.Cycles,
		Speedup:            float64(baseCycles) / float64(res.Cycles),
		ResidualMissCycles: resProf.TotalMissCycles,
	}, bench, model, gp.Label)

	for round := 1; round <= params.MaxRounds; round++ {
		// Re-rank from the residual profile with the portfolio ranking;
		// keep every prior target (covered loads look healthy in the
		// residual — dropping them would undo working slices and
		// oscillate). A region that was below the hotness floor while the
		// dominant region's misses swamped the profile can clear it here
		// once those misses are prefetched away, adding its loads — and a
		// new slice — to the union.
		var newTargets []int
		for _, id := range ssp.RankTargets(orig, resProf, opt) {
			if !have[id] {
				have[id] = true
				newTargets = append(newTargets, id)
			}
		}
		targets = append(targets, newTargets...)

		adapted, rep, err := ssp.AdaptTargets(orig, resProf, opt, bench, targets)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			cand.Err = fmt.Sprintf("round %d: re-adapt: %v", round, err)
			return cand, nil
		}
		label := fmt.Sprintf("%s/%s/r%d", bench, gp.Label, round)
		res, err = t.Suite.Simulate(ctx, label, model, adapted, want)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			// The round image ran and failed validation inside the
			// suite (watchdog, checksum, conservation): a gate, not a
			// configuration problem.
			return nil, fmt.Errorf("%w: %s round %d: %v", ErrGate, label, round, err)
		}
		if err := check.MetamorphicResults(baseRes, res); err != nil {
			return nil, fmt.Errorf("%w: %s round %d: %v", ErrGate, label, round, err)
		}

		regions = sliceRegions(rep)
		var newRegions []string
		for _, r := range regions {
			if !seenRegion[r] {
				seenRegion[r] = true
				newRegions = append(newRegions, r)
			}
		}
		resProf = prof.Rebase(res, orig)
		sp := float64(baseCycles) / float64(res.Cycles)
		t.record(cand, Round{
			Round:              round,
			Targets:            append([]int(nil), targets...),
			NewTargets:         newTargets,
			Skipped:            rep.Skipped,
			Regions:            regions,
			NewRegions:         newRegions,
			Slices:             rep.NumSlices(),
			Cycles:             res.Cycles,
			Speedup:            sp,
			ResidualMissCycles: resProf.TotalMissCycles,
		}, bench, model, gp.Label)

		if len(newTargets) == 0 && math.Abs(sp-prev) <= params.Epsilon*prev {
			cand.Converged = true
			break
		}
		prev = sp
	}

	for _, r := range cand.Rounds {
		if r.Speedup > cand.Best {
			cand.Best = r.Speedup
			cand.BestRound = r.Round
		}
	}
	return cand, nil
}

// record appends a round, narrates it, and returns its speedup.
func (t *Tuner) record(cand *Candidate, r Round, bench string, model sim.Model, label string) float64 {
	cand.Rounds = append(cand.Rounds, r)
	t.logf("%s/%s %s round %d: %.2fx (%d targets, %d slices, %d new, residual %d Mcycles)",
		bench, model, label, r.Round, r.Speedup, len(r.Targets), r.Slices, len(r.NewTargets),
		r.ResidualMissCycles/1_000_000)
	return r.Speedup
}

// sliceRegions returns the distinct regions of a report's slice portfolio in
// slice order.
func sliceRegions(rep *ssp.Report) []string {
	var out []string
	seen := make(map[string]bool, len(rep.Slices))
	for _, s := range rep.Slices {
		if !seen[s.Region] {
			seen[s.Region] = true
			out = append(out, s.Region)
		}
	}
	return out
}
