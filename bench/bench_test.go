package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchmarkMetric `json:"end_to_end"`
	PerLayer   []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// smokeRun runs every workload in this process at smoke size.
func smokeRun(t *testing.T, traced bool) map[string]*outcome {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	outs := make(map[string]*outcome)
	for _, w := range workloadList {
		e := &env{seed: 1, units: 1, smoke: true, traced: traced, root: root}
		o, err := w.run(e)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if traced {
			zeroLayers(o)
		}
		o.finish()
		if !o.Correct || o.Failed != 0 || o.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d errors=%v", w.name, o.Correct, o.Failed, o.Attempted, o.Errors)
		}
		if v, _ := o.value("failed_share"); v != 0 {
			t.Errorf("%s: failed_share %g", w.name, v)
		}
		outs[w.name] = o
	}
	return outs
}

var validName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkEmitted asserts every listed metric is emitted by every workload
// with a valid name and the listed unit.
func checkEmitted(t *testing.T, outs map[string]*outcome, listed []benchmarkMetric) {
	t.Helper()
	for _, m := range listed {
		if !validName.MatchString(m.Name) || len(m.Name) > 64 {
			t.Errorf("invalid metric name %q", m.Name)
		}
		for name, o := range outs {
			found := false
			for _, got := range o.Metrics {
				if got.Name == m.Name {
					found = true
					if got.Unit != m.Unit {
						t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
					}
				}
			}
			if !found {
				t.Errorf("%s: %s not emitted", name, m.Name)
			}
		}
	}
}

// TestSmoke runs every workload untraced and then traced (which repeats
// the untraced unit): both must pass their checks, emit every metric
// BENCHMARK.json lists, and agree exactly on the simulated metrics.
func TestSmoke(t *testing.T) {
	bf := loadBenchmarkFile(t)
	first := smokeRun(t, false)
	checkEmitted(t, first, bf.EndToEnd)
	second := smokeRun(t, true)
	checkEmitted(t, second, bf.PerLayer)
	for name, o := range first {
		for _, m := range o.Metrics {
			if spec, _ := specOf(m.Name); spec.Kind != exact {
				continue
			}
			if v, ok := second[name].value(m.Name); !ok || v != m.Value {
				t.Errorf("%s %s: %v then %v: simulated metrics must repeat exactly", name, m.Name, m.Value, v)
			}
		}
	}
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the metric
// catalog in step: same workloads, and every listed metric with the
// catalog's unit, direction and bound.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := loadBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadList) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloadList))
	}
	for _, w := range bf.Workloads {
		if _, ok := workloadByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is not run by the benchmark", w.Name)
		}
	}
	check := func(listed []benchmarkMetric, k kind) {
		if got, want := len(listed), len(namesOf(k)); got != want {
			t.Errorf("BENCHMARK.json lists %d metrics of kind %d, the catalog has %d", got, k, want)
		}
		for _, m := range listed {
			spec, ok := specOf(m.Name)
			switch {
			case !ok || spec.Kind != k:
				t.Errorf("%s: not a catalog metric of kind %d", m.Name, k)
			case spec.Unit != m.Unit || spec.Better != m.Better:
				t.Errorf("%s: BENCHMARK.json %s/%s, catalog %s/%s", m.Name, m.Unit, m.Better, spec.Unit, spec.Better)
			case k == hostTime && (m.Bound == nil || *m.Bound != spec.Bound):
				t.Errorf("%s: BENCHMARK.json bound %v, catalog %g", m.Name, m.Bound, spec.Bound)
			}
		}
	}
	check(bf.EndToEnd, hostTime)
	check(bf.PerLayer, layer)
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %g, %g; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %g, %g; want 1, 4", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Errorf("median = %g, want 5.5", m)
	}
}

func TestHarrellDavis(t *testing.T) {
	pi := []float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4}
	for _, c := range []struct {
		xs   []float64
		q    float64
		want float64
	}{
		// Reference values from a 20,000-step-per-statistic integration.
		{[]float64{10, 2, 4, 1, 3}, 0.5, 3.2896},
		{[]float64{10, 2, 4, 1, 3}, 0.75, 6.483553},
		{pi, 0.9, 8.764542},
		{[]float64{7}, 0.99, 7},
		{[]float64{2, 2, 2, 2}, 0.5, 2},
		{[]float64{1, 2, 3, 4, 5, 6}, 0.5, 3.5},
	} {
		if got := hdQuantile(c.xs, c.q); math.Abs(got-c.want) > 1e-5 {
			t.Errorf("hdQuantile(%v, %g) = %.7f, want %.7f", c.xs, c.q, got, c.want)
		}
	}
	// A large sample: agrees with the plain quantile.
	var big []float64
	for i := 0; i < 10_000; i++ {
		big = append(big, float64(i))
	}
	if got, plain := hdQuantile(big, 0.99), quantile(big, 0.99); math.Abs(got-plain) > 1 {
		t.Errorf("hdQuantile p99 of 0..9999 = %g, plain %g", got, plain)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Better: "lower", Bound: 0.10, Kind: hostTime}
	higher := metricSpec{Better: "higher", Bound: 0.10, Kind: hostTime}
	tight := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, tight, tight, "ok"},
		{"slower", lower, tight, []float64{1.20, 1.21, 1.19, 1.20, 1.22}, "worse"},
		{"faster", lower, tight, []float64{0.80, 0.81, 0.79}, "ok"},
		{"lower rate", higher, tight, []float64{0.80, 0.81, 0.79}, "worse"},
		{"noisy overlap", lower, tight, []float64{0.6, 1.0, 1.5, 2.0, 0.9}, "unresolved"},
		{"noisy but separated", lower, tight, []float64{1.5, 2.0, 3.0, 4.0}, "worse"},
		{"exact same", metricSpec{Kind: exact}, []float64{2, 2}, []float64{2}, "same"},
		{"exact changed", metricSpec{Kind: exact}, []float64{2, 2}, []float64{2.0001}, "changed"},
	} {
		if got := verdict(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
