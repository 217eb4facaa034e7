package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"ssp/internal/exp"
	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/ssp"
	"ssp/internal/tune"
	"ssp/internal/workloads"
)

// JobSpec is the wire format of one adapt+simulate job. Exactly one of Bench
// (a built-in benchmark) and Source (a program in the tool's assembly syntax)
// must be set.
type JobSpec struct {
	// Bench names a built-in benchmark kernel (workloads.All).
	Bench string `json:"bench,omitempty"`
	// Source is an assembly program (the ir syntax). Source jobs carry no
	// expected checksum, so the answer-verification step is skipped; every
	// other gate (watchdog, conservation) still applies.
	Source string `json:"source,omitempty"`
	// Model is the machine model: "in-order" (or "io") or "ooo".
	Model string `json:"model"`
	// Variant selects the binary treatment: "base" (default; simulate the
	// program as-is) or "ssp" (profile, adapt with the post-pass tool,
	// simulate the enhanced binary).
	Variant string `json:"variant,omitempty"`
	// Scale selects experiment sizing: "test" (default) or "paper". It
	// picks the benchmark working-set size and the memory-system scale,
	// exactly like exp.Scale.
	Scale string `json:"scale,omitempty"`
	// Options tunes the adaptation: a possibly-partial ssp.Options object
	// layered over ssp.DefaultOptions, so {"ChainUnroll": 2} changes one
	// knob without zeroing the rest. Unknown option names are rejected.
	// Only meaningful with Variant "ssp".
	Options json.RawMessage `json:"options,omitempty"`
	// TimeoutMS bounds the job's wall time; 0 uses the server default.
	// Deliberately excluded from the cache key: a result is the same
	// result no matter how long the client was willing to wait for it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Tune switches the job into closed-loop tuning mode: instead of one
	// adapt+simulate, the server runs the internal/tune search (adaptive
	// re-profiling over an options grid) and returns the tune.Result. Tune
	// jobs require Bench (the tuner runs on the experiment suite), take no
	// Variant or Options (the grid supplies the options), and cannot
	// stream. The mode is opt-in per server (Config.EnableTune): a tune
	// search costs many simulations, not one.
	Tune *TuneSpec `json:"tune,omitempty"`
}

// TuneSpec parameterizes a tune-mode job. Zero values take the tuner's
// defaults, which are applied during normalization so that an empty spec and
// an explicitly-default spec share one cache key.
type TuneSpec struct {
	// Rounds is the max number of re-profiling rounds per candidate after
	// the one-shot round 0 (tune.Params.MaxRounds). 0 means
	// tune.DefaultMaxRounds.
	Rounds int `json:"rounds,omitempty"`
	// Epsilon is the relative speedup-delta convergence threshold
	// (tune.Params.Epsilon). 0 means tune.DefaultEpsilon.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Grid selects the search grid (tune.Grid): "full" or "quick". Empty
	// means tune.DefaultGrid.
	Grid string `json:"grid,omitempty"`
}

// job is a validated, canonicalized JobSpec: defaults applied, model names
// normalized, options concretized. Everything in it except timeout and prog
// feeds the cache key.
type job struct {
	Bench   string
	Source  string
	Model   sim.Model
	Variant string
	Test    bool // test scale (vs paper scale)
	Options ssp.Options
	Tune    *tuneJob // non-nil switches the job into tuning mode

	timeout time.Duration
	// prog is Source parsed once by normalize: source vetting reads it,
	// then the suite's program stage takes it over instead of parsing the
	// text again.
	prog *ir.Program
}

// tuneJob is a TuneSpec with defaults applied — the canonical form that
// feeds the cache key.
type tuneJob struct {
	Rounds  int
	Epsilon float64
	Grid    string
}

const (
	varBase = "base"
	varSSP  = "ssp"
)

// normalize validates a JobSpec and resolves it to its canonical form.
// Errors from here are client errors (HTTP 400).
func (s *JobSpec) normalize(defaultTimeout time.Duration) (job, error) {
	var j job
	switch {
	case s.Bench != "" && s.Source != "":
		return j, fmt.Errorf("specify either bench or source, not both")
	case s.Bench != "":
		if _, err := workloads.ByName(s.Bench); err != nil {
			return j, err
		}
		j.Bench = s.Bench
	case s.Source != "":
		p, err := ir.Parse(s.Source)
		if err != nil {
			return j, fmt.Errorf("source: %w", err)
		}
		j.Source, j.prog = s.Source, p
	default:
		return j, fmt.Errorf("specify bench or source")
	}
	m, err := sim.ParseModel(s.Model)
	if err != nil {
		return j, err
	}
	j.Model = m
	switch s.Variant {
	case "", varBase:
		j.Variant = varBase
	case varSSP:
		j.Variant = varSSP
	default:
		return j, fmt.Errorf("unknown variant %q (want base or ssp)", s.Variant)
	}
	scale := exp.ScaleTest
	if s.Scale != "" {
		if scale, err = exp.ParseScale(s.Scale); err != nil {
			return j, err
		}
	}
	j.Test = scale == exp.ScaleTest
	j.Options = ssp.DefaultOptions()
	if len(s.Options) > 0 && string(s.Options) != "null" {
		if j.Variant != varSSP {
			return j, fmt.Errorf("options are only meaningful with variant %q", varSSP)
		}
		opt := j.Options // a local, so that decoding into it leaves j on the stack
		dec := json.NewDecoder(bytes.NewReader(s.Options))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&opt); err != nil {
			return j, fmt.Errorf("options: %w", err)
		}
		j.Options = opt
	}
	if s.Tune != nil {
		switch {
		case j.Bench == "":
			return j, fmt.Errorf("tune jobs require a built-in benchmark (bench), not source")
		case s.Variant != "":
			return j, fmt.Errorf("tune jobs take no variant (the search covers the ssp treatment)")
		case len(s.Options) > 0 && string(s.Options) != "null":
			return j, fmt.Errorf("tune jobs take no options (the grid supplies them)")
		}
		t := tuneJob{Rounds: s.Tune.Rounds, Epsilon: s.Tune.Epsilon, Grid: s.Tune.Grid}
		if t.Rounds < 0 {
			return j, fmt.Errorf("negative tune rounds")
		}
		if t.Rounds == 0 {
			t.Rounds = tune.DefaultMaxRounds
		}
		if t.Epsilon < 0 {
			return j, fmt.Errorf("negative tune epsilon")
		}
		if t.Epsilon == 0 {
			t.Epsilon = tune.DefaultEpsilon
		}
		if t.Grid == "" {
			t.Grid = tune.DefaultGrid
		}
		if _, err := tune.Grid(t.Grid); err != nil {
			return j, fmt.Errorf("tune: %w", err)
		}
		j.Tune = &t
	}
	if s.TimeoutMS < 0 {
		return j, fmt.Errorf("negative timeout_ms")
	}
	j.timeout = defaultTimeout
	if s.TimeoutMS > 0 {
		j.timeout = time.Duration(s.TimeoutMS) * time.Millisecond
	}
	return j, nil
}

// scale is the experiment scale the job runs at.
func (j job) scale() exp.Scale {
	if j.Test {
		return exp.ScaleTest
	}
	return exp.ScalePaper
}

// key is the job's content address: the hex SHA-256 of its canonical form.
// Identical work — same program, same scale, same model, same treatment,
// same options — hashes identically no matter how the client phrased the
// request. It names the job in responses and keys the tune-result memo;
// plain jobs coalesce and hit on the suite's run cell for the same work.
func (j job) key() string {
	var data []byte
	if j.Source == "" && j.Tune == nil {
		data = j.benchCanon(make([]byte, 0, 640))
	}
	if data == nil {
		data = j.canon()
	}
	sum := sha256.Sum256(data)
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], sum[:])
	return string(h[:])
}

// benchCanon appends the canonical form of a bench job without a tune spec:
// exactly canon's bytes, or nil when the benchmark name would need escaping.
// The model and variant names are normalize's, which need none.
func (j job) benchCanon(b []byte) []byte {
	b, ok := appendString(append(b, `{"Bench":`...), j.Bench)
	if !ok {
		return nil
	}
	b = append(append(b, `,"Source":"","Model":"`...), j.Model.String()...)
	b = append(append(b, `","Variant":"`...), j.Variant...)
	b = strconv.AppendBool(append(b, `","Test":`...), j.Test)
	b = append(append(b, `,"Options":`...), j.Options.Key()...)
	return append(b, '}')
}

// canon is the job's canonical form: the JSON encoding of its key fields.
func (j job) canon() []byte {
	canon := struct {
		Bench   string
		Source  string
		Model   string
		Variant string
		Test    bool
		Options ssp.Options
		// Tune is omitted when nil so every pre-existing (non-tune) job
		// keeps the key it had before tuning mode existed.
		Tune *tuneJob `json:",omitempty"`
	}{j.Bench, j.Source, j.Model.String(), j.Variant, j.Test, j.Options, j.Tune}
	data, err := json.Marshal(canon)
	if err != nil {
		// Every field is a plain value; Marshal cannot fail.
		panic(err)
	}
	return data
}

// JobResult is the client-visible outcome of a job: the stat vector of the
// cached run that the paper's figures are computed from. Field names match
// the golden-stats baseline (internal/exp/testdata/golden_stats.json) so
// results can be compared against it byte-for-byte.
type JobResult struct {
	Cycles      int64
	Breakdown   [sim.NumCategories]int64
	MainInstrs  int64
	SpecInstrs  int64
	Spawns      int64
	ChkTaken    int64
	Mispredicts int64

	MemAccesses uint64
	MemL1Hits   uint64
	MissCycles  uint64
	TLBMisses   uint64

	// Slices is the adaptation's p-slice count (Table 2); zero for base
	// variants, which run no tool.
	Slices int `json:",omitempty"`
}

func toJobResult(res *sim.Result, rep *ssp.Report) JobResult {
	jr := JobResult{
		Cycles:      res.Cycles,
		Breakdown:   res.Breakdown,
		MainInstrs:  res.MainInstrs,
		SpecInstrs:  res.SpecInstrs,
		Spawns:      res.Spawns,
		ChkTaken:    res.ChkTaken,
		Mispredicts: res.Mispredicts,
		MemAccesses: res.Hier.Totals.Accesses,
		MemL1Hits:   res.Hier.Totals.Hits[0][0],
		MissCycles:  res.Hier.Totals.MissCycles,
		TLBMisses:   res.Hier.Totals.TLBMisses,
	}
	if rep != nil {
		jr.Slices = rep.NumSlices()
	}
	return jr
}

// JobResponse is the envelope around a completed job: the result plus
// per-request metadata (the content key, whether this request was served
// from cache, and how long it waited).
type JobResponse struct {
	Key    string `json:"key"`
	Cached bool   `json:"cached"`
	// WallMS times only the resolution of the job's cell (or its tune
	// search): decoding the request, normalizing and keying the job, and
	// encoding this reply are outside it. On a cache hit it reads the cell.
	WallMS float64 `json:"wall_ms"`
	// Result is the stat vector of a plain adapt+simulate job; nil for
	// tune jobs.
	Result *JobResult `json:"result,omitempty"`
	// Tune is the search outcome of a tune-mode job: best configuration,
	// per-round trajectories, recovered headroom. Nil for plain jobs.
	Tune *tune.Result `json:"tune,omitempty"`
}
