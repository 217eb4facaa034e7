package exp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"ssp/internal/sim"
	"ssp/internal/sim/mem"
	"ssp/internal/workloads"
)

// Fig2Row reproduces one category of Figure 2: speedups over the same
// model's baseline when assuming a perfect memory subsystem and when
// assuming only the delinquent loads always hit L1.
type Fig2Row struct {
	Bench                  string
	PerfMemIO, PerfDelIO   float64
	PerfMemOOO, PerfDelOOO float64
}

// Figure2 runs the perfect-memory / perfect-delinquent bound study.
func (s *Suite) Figure2() ([]Fig2Row, error) {
	if err := s.RunAll(Fig2Keys(), s.Workers); err != nil {
		return nil, err
	}
	var rows []Fig2Row
	for _, b := range PaperBenchmarks() {
		r := Fig2Row{Bench: b}
		var err error
		if r.PerfMemIO, err = s.Speedup(b, sim.InOrder, VarBase, sim.InOrder, VarPerfMem); err != nil {
			return nil, err
		}
		if r.PerfDelIO, err = s.Speedup(b, sim.InOrder, VarBase, sim.InOrder, VarPerfDel); err != nil {
			return nil, err
		}
		if r.PerfMemOOO, err = s.Speedup(b, sim.OOO, VarBase, sim.OOO, VarPerfMem); err != nil {
			return nil, err
		}
		if r.PerfDelOOO, err = s.Speedup(b, sim.OOO, VarBase, sim.OOO, VarPerfDel); err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Table2Row is one per-benchmark row of Table 2, with the source paper's
// numbers alongside for the kernels that have a namesake there (the Paper*
// fields are zero for benchmarks with no counterpart, e.g. the rand.*
// family). Multi-phase variants compare against their base kernel's row:
// the paper's full benchmarks have several hot routines each earning a
// slice, which is exactly the shape the *.multi kernels reintroduce.
type Table2Row struct {
	Bench      string  `json:"bench"`
	Slices     int     `json:"slices"`
	Interproc  int     `json:"interproc"`
	AvgSize    float64 `json:"avg_size"`
	AvgLiveIns float64 `json:"avg_live_ins"`

	PaperSlices     int     `json:"paper_slices,omitempty"`
	PaperInterproc  int     `json:"paper_interproc,omitempty"`
	PaperAvgSize    float64 `json:"paper_avg_size,omitempty"`
	PaperAvgLiveIns float64 `json:"paper_avg_live_ins,omitempty"`
}

// paperTable2 pins the source paper's Table 2 rows.
var paperTable2 = map[string]Table2Row{
	"em3d":       {PaperSlices: 8, PaperInterproc: 0, PaperAvgSize: 10.3, PaperAvgLiveIns: 2.8},
	"health":     {PaperSlices: 2, PaperInterproc: 1, PaperAvgSize: 9.0, PaperAvgLiveIns: 3.5},
	"mst":        {PaperSlices: 4, PaperInterproc: 1, PaperAvgSize: 28.3, PaperAvgLiveIns: 4.8},
	"treeadd.df": {PaperSlices: 3, PaperInterproc: 0, PaperAvgSize: 11.3, PaperAvgLiveIns: 3.0},
	"treeadd.bf": {PaperSlices: 2, PaperInterproc: 0, PaperAvgSize: 12.5, PaperAvgLiveIns: 4.5},
	"mcf":        {PaperSlices: 5, PaperInterproc: 0, PaperAvgSize: 14.0, PaperAvgLiveIns: 4.4},
	"vpr":        {PaperSlices: 6, PaperInterproc: 0, PaperAvgSize: 13.5, PaperAvgLiveIns: 4.0},
}

// paperCounterpart maps a benchmark to its paper Table 2 namesake: the
// benchmark itself, or for the multi-phase variants the base kernel they
// scale up ("mcf.multi" compares against the paper's mcf row).
func paperCounterpart(bench string) (Table2Row, bool) {
	if r, ok := paperTable2[bench]; ok {
		return r, true
	}
	if base, _, ok := strings.Cut(bench, ".multi"); ok {
		r, ok := paperTable2[base]
		return r, ok
	}
	return Table2Row{}, false
}

// Table2 reports per-benchmark slice characteristics of the tool's output
// across every benchmark (paper kernels and the multi-phase portfolio ones).
func (s *Suite) Table2() ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range Benchmarks() {
		rep, err := s.Report(b, VarSSP)
		if err != nil {
			return nil, err
		}
		row := Table2Row{
			Bench:      b,
			Slices:     rep.NumSlices(),
			Interproc:  rep.NumInterproc(),
			AvgSize:    rep.AvgSize(),
			AvgLiveIns: rep.AvgLiveIns(),
		}
		if ref, ok := paperCounterpart(b); ok {
			row.PaperSlices = ref.PaperSlices
			row.PaperInterproc = ref.PaperInterproc
			row.PaperAvgSize = ref.PaperAvgSize
			row.PaperAvgLiveIns = ref.PaperAvgLiveIns
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Table2Slice is one per-slice row of the machine-readable Table 2: which
// region the slice precomputes for, where its trigger sits, and the Table 2
// statistics that the envelope check gates.
type Table2Slice struct {
	Bench           string `json:"bench"`
	Slice           int    `json:"slice"`
	Region          string `json:"region"`
	Trigger         string `json:"trigger"`
	Model           string `json:"model"`
	Targets         []int  `json:"targets"`
	Size            int    `json:"size"`
	LiveIns         int    `json:"live_ins"`
	Interprocedural bool   `json:"interprocedural"`
	SpawnBudget     int64  `json:"spawn_budget"`
}

// Table2Slices flattens every benchmark's report into per-slice rows, the
// slice-portfolio companion to Table2's per-benchmark averages.
func (s *Suite) Table2Slices() ([]Table2Slice, error) {
	var rows []Table2Slice
	for _, b := range Benchmarks() {
		rep, err := s.Report(b, VarSSP)
		if err != nil {
			return nil, err
		}
		for i, sl := range rep.Slices {
			rows = append(rows, Table2Slice{
				Bench:           b,
				Slice:           i,
				Region:          sl.Region,
				Trigger:         sl.Trigger,
				Model:           sl.Model,
				Targets:         sl.Targets,
				Size:            sl.Size,
				LiveIns:         sl.LiveIns,
				Interprocedural: sl.Interprocedural,
				SpawnBudget:     sl.SpawnBudget,
			})
		}
	}
	return rows, nil
}

// Table2Envelope checks the generated portfolio against the paper's Table 2
// envelope and each benchmark's declared phase count, returning one message
// per violation (empty means the portfolio is inside the envelope):
//
//   - every slice's size lands in the paper's 7-15 instruction range and its
//     live-in count in the 1-4 range;
//   - every benchmark produces at least Spec.MinSlices slices (multi-phase
//     benchmarks declare >= 2), each with a distinct trigger site.
//
// `make table2-check` and the CI workflow fail on any violation.
func Table2Envelope(rows []Table2Row, slices []Table2Slice) []string {
	const (
		minSize, maxSize       = 7, 15
		minLiveIns, maxLiveIns = 1, 4
	)
	var bad []string
	triggers := make(map[string]map[string]bool)
	for _, sl := range slices {
		if sl.Size < minSize || sl.Size > maxSize {
			bad = append(bad, fmt.Sprintf("%s slice %d (%s): size %d outside Table 2 envelope [%d,%d]",
				sl.Bench, sl.Slice, sl.Region, sl.Size, minSize, maxSize))
		}
		if sl.LiveIns < minLiveIns || sl.LiveIns > maxLiveIns {
			bad = append(bad, fmt.Sprintf("%s slice %d (%s): %d live-ins outside Table 2 envelope [%d,%d]",
				sl.Bench, sl.Slice, sl.Region, sl.LiveIns, minLiveIns, maxLiveIns))
		}
		if triggers[sl.Bench] == nil {
			triggers[sl.Bench] = make(map[string]bool)
		}
		if triggers[sl.Bench][sl.Trigger] {
			bad = append(bad, fmt.Sprintf("%s slice %d (%s): trigger %s shared with another slice",
				sl.Bench, sl.Slice, sl.Region, sl.Trigger))
		}
		triggers[sl.Bench][sl.Trigger] = true
	}
	for _, r := range rows {
		spec, err := workloads.ByName(r.Bench)
		if err != nil {
			bad = append(bad, fmt.Sprintf("%s: unknown benchmark: %v", r.Bench, err))
			continue
		}
		min := spec.MinSlices
		if min < 1 {
			min = 1
		}
		if r.Slices < min {
			bad = append(bad, fmt.Sprintf("%s: %d slices, want >= %d independent slices", r.Bench, r.Slices, min))
		}
	}
	return bad
}

// Fig8Row is one benchmark of Figure 8: speedups over the baseline in-order
// model for in-order+SSP, plain OOO, and OOO+SSP.
type Fig8Row struct {
	Bench                   string
	InOrderSSP, OOO, OOOSSP float64
}

// Figure8 runs the headline speedup study.
func (s *Suite) Figure8() ([]Fig8Row, error) {
	if err := s.RunAll(Fig8Keys(), s.Workers); err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for _, b := range PaperBenchmarks() {
		r := Fig8Row{Bench: b}
		var err error
		if r.InOrderSSP, err = s.Speedup(b, sim.InOrder, VarBase, sim.InOrder, VarSSP); err != nil {
			return nil, err
		}
		if r.OOO, err = s.Speedup(b, sim.InOrder, VarBase, sim.OOO, VarBase); err != nil {
			return nil, err
		}
		if r.OOOSSP, err = s.Speedup(b, sim.InOrder, VarBase, sim.OOO, VarSSP); err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// Fig9Config is one bar of Figure 9: the delinquent loads' L1 miss rate and
// the distribution of where missing accesses were satisfied (full and
// partial hits per level).
type Fig9Config struct {
	Label      string
	L1MissRate float64
	// Share is the fraction of L1-missing accesses satisfied at each
	// (level, partial) bucket; levels L2..Mem, index 0 full / 1 partial.
	Share map[string]float64
}

// Fig9Row is one benchmark's four configurations (io, io+ssp, ooo, ooo+ssp).
type Fig9Row struct {
	Bench   string
	Configs []Fig9Config
}

// Figure9 computes the delinquent-load satisfaction breakdown.
func (s *Suite) Figure9() ([]Fig9Row, error) {
	if err := s.RunAll(Fig8Keys(), s.Workers); err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, b := range PaperBenchmarks() {
		p, err := s.program(context.Background(), newRequest(b, "", sim.InOrder, nil))
		if err != nil {
			return nil, err
		}
		del := p.delinquent()
		row := Fig9Row{Bench: b}
		for _, c := range []struct {
			label string
			model sim.Model
			v     Variant
		}{
			{"io", sim.InOrder, VarBase},
			{"io+ssp", sim.InOrder, VarSSP},
			{"ooo", sim.OOO, VarBase},
			{"ooo+ssp", sim.OOO, VarSSP},
		} {
			res, err := s.Run(b, c.model, c.v)
			if err != nil {
				return nil, err
			}
			var acc, l1 uint64
			missBuckets := map[string]uint64{}
			var missTotal uint64
			for _, id := range del {
				st := res.Hier.ByLoad()[id]
				if st == nil {
					continue
				}
				acc += st.Accesses
				l1 += st.Hits[mem.L1][0]
				for lvl := mem.L2; lvl <= mem.Mem; lvl++ {
					for p := 0; p < 2; p++ {
						n := st.Hits[lvl][p]
						missTotal += n
						key := lvl.String()
						if p == 1 {
							key += " partial"
						}
						missBuckets[key] += n
					}
				}
			}
			cfgRes := Fig9Config{Label: c.label, Share: map[string]float64{}}
			if acc > 0 {
				cfgRes.L1MissRate = float64(acc-l1) / float64(acc)
			}
			if missTotal > 0 {
				for k, n := range missBuckets {
					cfgRes.Share[k] = float64(n) / float64(missTotal)
				}
			}
			row.Configs = append(row.Configs, cfgRes)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10Config is one bar of Figure 10: the main thread's cycle breakdown
// normalized to the baseline in-order cycle count.
type Fig10Config struct {
	Label string
	// Norm holds the six categories (L3, L2, L1, Cache+Exec, Exec, Other)
	// as fractions of the baseline in-order cycles.
	Norm [sim.NumCategories]float64
	// Total is the bar height (cycles / baseline in-order cycles).
	Total float64
}

// Fig10Row is one benchmark's four configurations.
type Fig10Row struct {
	Bench   string
	Configs []Fig10Config
}

// Figure10 computes normalized cycle breakdowns.
func (s *Suite) Figure10() ([]Fig10Row, error) {
	if err := s.RunAll(Fig8Keys(), s.Workers); err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for _, b := range PaperBenchmarks() {
		base, err := s.Run(b, sim.InOrder, VarBase)
		if err != nil {
			return nil, err
		}
		denom := float64(base.Cycles)
		row := Fig10Row{Bench: b}
		for _, c := range []struct {
			label string
			model sim.Model
			v     Variant
		}{
			{"io", sim.InOrder, VarBase},
			{"io+ssp", sim.InOrder, VarSSP},
			{"ooo", sim.OOO, VarBase},
			{"ooo+ssp", sim.OOO, VarSSP},
		} {
			res, err := s.Run(b, c.model, c.v)
			if err != nil {
				return nil, err
			}
			fc := Fig10Config{Label: c.label}
			for cat := sim.Category(0); cat < sim.NumCategories; cat++ {
				fc.Norm[cat] = float64(res.Breakdown[cat]) / denom
			}
			fc.Total = float64(res.Cycles) / denom
			row.Configs = append(row.Configs, fc)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Sec45Row compares automatic and hand adaptation (§4.5) on one model.
type Sec45Row struct {
	Bench       string
	Model       string
	AutoSpeedup float64
	HandSpeedup float64
	// LossPct is how much of the hand version's speedup the tool loses:
	// 1 - auto/hand, as a percentage (the paper reports 20%/12%/27%).
	LossPct float64
}

// Section45 runs the automatic-vs-hand study on mcf and health.
func (s *Suite) Section45() ([]Sec45Row, error) {
	if err := s.RunAll(Sec45Keys(), s.Workers); err != nil {
		return nil, err
	}
	var rows []Sec45Row
	for _, b := range []string{"mcf", "health"} {
		for _, model := range []sim.Model{sim.InOrder, sim.OOO} {
			auto, err := s.Speedup(b, model, VarBase, model, VarSSP)
			if err != nil {
				return nil, err
			}
			hand, err := s.Speedup(b, model, VarBase, model, VarHand)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Sec45Row{
				Bench:       b,
				Model:       model.String(),
				AutoSpeedup: auto,
				HandSpeedup: hand,
				LossPct:     100 * (1 - auto/hand),
			})
		}
	}
	return rows, nil
}

// AblationRow is one benchmark/variant speedup over the in-order baseline.
type AblationRow struct {
	Bench   string
	Variant Variant
	Speedup float64
}

// Ablations measures each disabled design choice on the in-order model.
func (s *Suite) Ablations(benches []string) ([]AblationRow, error) {
	if benches == nil {
		benches = PaperBenchmarks()
	}
	if err := s.RunAll(AblationKeys(benches), s.Workers); err != nil {
		return nil, err
	}
	var rows []AblationRow
	for _, b := range benches {
		for _, v := range ablationVariants {
			sp, err := s.Speedup(b, sim.InOrder, VarBase, sim.InOrder, v)
			if err != nil {
				return nil, err
			}
			rows = append(rows, AblationRow{Bench: b, Variant: v, Speedup: sp})
		}
	}
	return rows, nil
}

// GeoMean returns the geometric mean of xs (the paper quotes arithmetic
// averages; both are reported by the drivers).
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	p := 1.0
	for _, x := range xs {
		p *= x
	}
	return math.Pow(p, 1/float64(len(xs)))
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// FormatTable renders rows of cells as an aligned text table.
func FormatTable(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteByte('\n')
	}
	line(header)
	for _, r := range rows {
		line(r)
	}
	return sb.String()
}
