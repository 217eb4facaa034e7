package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"
)

// side is one set of runs: workload -> metric -> values in run order.
type side map[string]map[string][]float64

func loadSide(path string) (side, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	s := make(side)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	for n := 1; sc.Scan(); n++ {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if s[rec.Workload] == nil {
			s[rec.Workload] = make(map[string][]float64)
		}
		for _, m := range rec.Outcome.Metrics {
			s[rec.Workload][m.Name] = append(s[rec.Workload][m.Name], m.Value)
		}
	}
	return s, sc.Err()
}

// verdict compares one metric's runs on two sides. Host-time metrics are
// "ok" unless B's median is worse than A's by more than the bound, and
// "unresolved" when either side's quartile spread is wider than the bound
// and the two sides' ranges overlap. Exact metrics are "same" or "changed".
func verdict(spec metricSpec, a, b []float64) string {
	switch spec.Kind {
	case exact:
		for _, v := range append(append([]float64(nil), a...), b...) {
			if v != a[0] {
				return "changed"
			}
		}
		return "same"
	case layer:
		return "-"
	}
	ma, mb := median(a), median(b)
	worse := (mb - ma) / ma
	if spec.Better == "higher" {
		worse = -worse
	}
	if max(spread(a), spread(b)) > spec.Bound && !separated(a, b) {
		return "unresolved"
	}
	if worse > spec.Bound {
		return "worse"
	}
	return "ok"
}

// spread is the quartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return ratio(q3-q1, math.Abs(median(xs)))
}

// separated reports whether every value of one side lies beyond every value
// of the other.
func separated(a, b []float64) bool {
	minA, maxA := bounds(a)
	minB, maxB := bounds(b)
	return maxA < minB || maxB < minA
}

func bounds(xs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return lo, hi
}

// runCompare prints, per workload and metric, each side's median and
// quartiles, the bound and a verdict. It fails when any metric is worse or
// changed.
func runCompare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: compare A.jsonl B.jsonl")
	}
	a, err := loadSide(args[0])
	if err != nil {
		return err
	}
	b, err := loadSide(args[1])
	if err != nil {
		return err
	}
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median [q1, q3]\tB median [q1, q3]\tbound\tverdict")
	bad := 0
	for _, wl := range workloadList {
		for _, spec := range catalog {
			va, vb := a[wl.name][spec.Name], b[wl.name][spec.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v := verdict(spec, va, vb)
			if v == "worse" || v == "changed" {
				bad++
			}
			bound := "-"
			if spec.Kind == hostTime {
				bound = fmt.Sprintf("%.0f%%", 100*spec.Bound)
			} else if spec.Kind == exact {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", wl.name, spec.Name, summarize(va), summarize(vb), bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad > 0 {
		return fmt.Errorf("%d metrics worse or changed", bad)
	}
	return nil
}

func summarize(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}
