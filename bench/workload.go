package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"ssp/internal/sim"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(e *env) (*outcome, error)
	// unitSeconds is the nominal host time of one unit of the workload's
	// fixed work, calibration included; a run measures as many whole units
	// as fit its budget at that pace, at least one. The count depends only
	// on the budget, so every run of a workload does the same work.
	unitSeconds float64
}

// workloadList holds the benchmark's workloads in run order.
var workloadList = []workload{
	{"matrix-paper", "the paper-scale 48-cell matrix and Figure 8: fast-forward and sim/mem do most of the work", runMatrix, 15},
	{"engine-alu", "cache-resident kernels on the interpreter and both cycle engines: dispatch-bound, little stall to skip", runEngine, 3.5},
	{"serve-hot", "80,000 cache-hit jobs over loopback: the serving read path with no simulation", runServeHot, 4.5},
	{"serve-cold", "1,200 distinct jobs, options and source IR with unsafe mutants: parse, vet, profile, adapt, simulate per job", runServeCold, 12},
	{"tune-paper", "the closed-loop tuner's full grid on mcf and rand.2p: re-adapt and uncached simulate rounds", runTune, 9},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// env is what a workload run gets: its seed, how much to measure, whether
// to add a traced pass, and the start-up time setup_s includes.
type env struct {
	seed   int64
	units  int // units of fixed work to measure
	smoke  bool
	traced bool
	root   string // repository root (holds internal/exp/testdata)

	// startup is the process start-up time, in host seconds, that setup_s
	// includes: the parent's median over start-up probes.
	startup float64

	// spans collects the traced pass's spans for the -trace FILE output.
	spans []Span
}

func (e *env) calibEdge() int {
	if e.smoke {
		return 1
	}
	return calibEdge
}

func (e *env) rng(salt int64) *rand.Rand { return rand.New(rand.NewSource(e.seed*1_000_003 + salt)) }

// metric is one emitted value.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a workload run's result, sent from the child process to the
// parent as one JSON line.
type outcome struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
	Notes     []string `json:"notes,omitempty"`
	Errors    []string `json:"errors,omitempty"`
}

func (o *outcome) set(name string, v float64) {
	spec, ok := specOf(name)
	if !ok {
		panic("bench: metric not in catalog: " + name)
	}
	for i := range o.Metrics {
		if o.Metrics[i].Name == name {
			o.Metrics[i].Value = v
			return
		}
	}
	o.Metrics = append(o.Metrics, metric{Name: name, Value: v, Unit: spec.Unit})
}

func (o *outcome) value(name string) (float64, bool) {
	for _, m := range o.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// mustValue returns a metric this outcome has already set.
func (o *outcome) mustValue(name string) float64 {
	v, ok := o.value(name)
	if !ok {
		panic("bench: metric not set yet: " + name)
	}
	return v
}

// fail records a failed check; at most a few messages are kept.
func (o *outcome) fail(format string, args ...any) {
	o.Failed++
	if len(o.Errors) < 8 {
		o.Errors = append(o.Errors, fmt.Sprintf(format, args...))
	}
}

// unit is what one repetition of a workload's fixed work measured.
// Durations are host time; scale converts them to reference seconds.
type unit struct {
	raw       time.Duration // measured segments, calibration excluded
	ops       int
	latencies []time.Duration
	cycles    int64 // simulated cycles of the results the unit delivered
	scale     float64
}

// wall is the unit's time in reference seconds.
func (u unit) wall() float64 { return u.raw.Seconds() * u.scale }

// setup runs fn reps times and returns, in reference seconds, the process
// start-up cost plus the median set-up; fn's last run leaves the state the
// measured phase uses.
func (e *env) setup(reps int, fn func() error) (float64, error) {
	if e.smoke {
		reps = 1
	}
	warmCalibration()
	m := newMeter(e.calibEdge())
	var ds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, fmt.Errorf("setup: %w", err)
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return (e.startup + median(ds)) * m.scale(), nil
}

// once runs one unit of fixed work under a fresh meter.
func (e *env) once(fn func(m *meter) (unit, error)) (unit, error) {
	m := newMeter(e.calibEdge())
	u, err := fn(m)
	u.raw, u.scale = m.raw, m.scale()
	return u, err
}

// measure runs fn e.units times, one unit of fixed work per call. Each
// unit starts from a collected heap.
func (e *env) measure(fn func(i int, m *meter) (unit, error)) ([]unit, error) {
	var us []unit
	for i := 0; i < e.units; i++ {
		runtime.GC()
		u, err := e.once(func(m *meter) (unit, error) { return fn(i, m) })
		if err != nil {
			return us, err
		}
		us = append(us, u)
	}
	return us, nil
}

// unitsFor returns how many units of w fit a budget of seconds.
func unitsFor(w workload, seconds float64, smoke bool) int {
	if smoke {
		return 1
	}
	return max(1, int(seconds/w.unitSeconds))
}

// endToEnd sets the host-time metrics from the measured units: each is
// computed per unit, and the median over units is reported.
func (o *outcome) endToEnd(setupS float64, us []unit) {
	var walls, rates, mcps, p50s, tails, raws, scales []float64
	var tail float64
	for _, u := range us {
		w := u.wall()
		walls = append(walls, w)
		rates = append(rates, float64(u.ops)/w)
		mcps = append(mcps, float64(u.cycles)/w/1e6)
		raws = append(raws, u.raw.Seconds())
		scales = append(scales, u.scale)
		lat := make([]float64, len(u.latencies))
		for i, l := range u.latencies {
			lat[i] = l.Seconds() * u.scale * 1e3
		}
		tail = tailQuantile(len(lat))
		p50s = append(p50s, hdQuantile(lat, 0.5))
		tails = append(tails, hdQuantile(lat, tail))
		o.Attempted += u.ops
	}
	o.set("setup_s", setupS)
	o.set("wall_s", median(walls))
	o.set("jobs_per_s", median(rates))
	o.set("latency_p50_ms", median(p50s))
	o.set("latency_p99_ms", median(tails))
	o.set("sim_mcycles_per_s", median(mcps))
	o.Notes = append(o.Notes, fmt.Sprintf("%d unit(s) of %d ops; median host wall %.4g s at %.3f reference s per host s; latency_p99_ms is the p%.4g of a unit's %d op latencies",
		len(us), us[0].ops, median(raws), median(scales), 100*tail, len(us[0].latencies)))
}

// tailLatencySamples is how many samples must lie beyond the reported tail
// latency: with fewer than 100 times that many samples, the tail quantile
// drops below 0.99 so the value is not one or two outliers.
const tailLatencySamples = 12

// tailQuantile returns 0.99, or the highest quantile with at least
// tailLatencySamples of n samples beyond it (never below the median).
func tailQuantile(n int) float64 {
	q := 1 - float64(tailLatencySamples)/float64(max(n, 1))
	return min(0.99, max(0.5, q))
}

// finish sets the metrics every workload reports the same way and puts the
// metrics in catalog order.
func (o *outcome) finish() {
	o.set("failed_share", ratio(float64(o.Failed), float64(max(o.Attempted, 1))))
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		o.set("peak_rss_mb", float64(ru.Maxrss)/1024) // Linux reports KiB
	}
	o.Correct = o.Failed == 0
	order := make(map[string]int, len(catalog))
	for i, s := range catalog {
		order[s.Name] = i
	}
	sort.SliceStable(o.Metrics, func(i, j int) bool { return order[o.Metrics[i].Name] < order[o.Metrics[j].Name] })
}

// simAgg accumulates engine work for the sim and sim/mem per-layer metrics.
// Safe for concurrent use.
type simAgg struct {
	mu     sync.Mutex
	models map[string]*modelAgg
	maxRun float64

	accesses, l1Hits, missCycles, tlbMisses uint64
	pfIssued, pfUseful                      uint64
}

type modelAgg struct {
	secs                               float64
	cycles, mainInstrs, instrs, ffCycl int64
	ffJumps                            int64
	specInstrs                         int64
}

func newSimAgg() *simAgg { return &simAgg{models: make(map[string]*modelAgg)} }

func (a *simAgg) model(name string) *modelAgg {
	m, ok := a.models[name]
	if !ok {
		m = new(modelAgg)
		a.models[name] = m
	}
	return m
}

// addRun records one cycle-engine run of d host time.
func (a *simAgg) addRun(model sim.Model, d time.Duration, r *sim.Result) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.model(model.String())
	m.secs += d.Seconds()
	m.cycles += r.Cycles
	m.mainInstrs += r.MainInstrs
	m.specInstrs += r.SpecInstrs
	m.instrs += r.MainInstrs + r.SpecInstrs
	m.ffCycl += r.FastForwardedCycles
	m.ffJumps += r.FastForwards
	a.maxRun = max(a.maxRun, d.Seconds())
	t := r.Hier.Totals
	a.accesses += t.Accesses
	a.l1Hits += t.Hits[0][0]
	a.missCycles += t.MissCycles
	a.tlbMisses += t.TLBMisses
	a.pfIssued += r.Hier.PrefetchIssued
	a.pfUseful += r.Hier.PrefetchUseful
}

// addInterp records one functional interpretation.
func (a *simAgg) addInterp(d time.Duration, instrs int64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.model("interp")
	m.secs += d.Seconds()
	m.instrs += instrs
	a.maxRun = max(a.maxRun, d.Seconds())
}

// layers sets the sim and sim/mem per-layer metrics.
func (a *simAgg) layers(o *outcome) {
	var ff, main, spec int64
	for _, name := range []string{"in-order", "ooo", "interp"} {
		m := a.model(name)
		o.set("sim.run_s."+name, m.secs)
		o.set("sim.minstrs_per_s."+name, ratio(float64(m.instrs), m.secs)/1e6)
		if name != "interp" {
			o.set("sim.ns_per_cycle."+name, ratio(m.secs*1e9, float64(m.cycles)))
			o.set("sim.ipc."+name, ratio(float64(m.mainInstrs), float64(m.cycles)))
			o.set("sim.ff_cycle_share."+name, ratio(float64(m.ffCycl), float64(m.cycles)))
			ff += m.ffJumps
			main += m.mainInstrs
			spec += m.specInstrs
		}
	}
	o.set("sim.fast_forwards", float64(ff))
	o.set("sim.spec_instr_share", ratio(float64(spec), float64(main+spec)))
	o.set("sim.cell_s_max", a.maxRun)
	o.set("mem.l1_hit_rate", ratio(float64(a.l1Hits), float64(a.accesses)))
	o.set("mem.miss_cycles_per_access", ratio(float64(a.missCycles), float64(a.accesses)))
	o.set("mem.tlb_misses", float64(a.tlbMisses))
	o.set("mem.prefetch_accuracy", ratio(float64(a.pfUseful), float64(a.pfIssued)))
}

// spanLayers sets the per-layer self-time metrics from the traced pass's
// spans.
func spanLayers(o *outcome, spans []Span) {
	self := selfByName(spans)
	for metricName, span := range map[string]string{
		"workloads.build_s":    "workloads.build",
		"profile.collect_s":    "profile.collect",
		"ssp.adapt_s":          "ssp.adapt",
		"ssp.certify_s":        "ssp.certify",
		"ir.parse_s":           "ir.parse",
		"ir.link_s":            "ir.link",
		"decode.predecode_s":   "decode.predecode",
		"threaded.compile_s":   "threaded.compile",
		"check.conservation_s": "check.conservation",
	} {
		o.set(metricName, self[span])
	}
	var slices float64
	for _, s := range spans {
		if s.Name == "ssp.certify" {
			slices += s.Attrs["slices"]
		}
	}
	o.set("ssp.slices", slices)
}

// zeroLayers emits every per-layer metric the workload did not produce as
// 0, so each traced run reports the full per_layer set.
func zeroLayers(o *outcome) {
	for _, name := range namesOf(layer) {
		if _, ok := o.value(name); !ok {
			o.set(name, 0)
		}
	}
}
