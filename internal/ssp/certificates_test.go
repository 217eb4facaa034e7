package ssp

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ssp/internal/handtuned"
	"ssp/internal/ir"
	"ssp/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite testdata/safety_certificates.json from the current verifier")

// goldenCert is the certificate vector pinned per slice: the numbers the
// verifier's graph algorithms (reachability, back edges, dominators, loop
// bodies, longest path, path count) produce, plus the classes of every
// violation reported against the slice, in report order.
type goldenCert struct {
	Budget     int64         `json:"budget"`
	Static     bool          `json:"static"`
	Paths      int64         `json:"paths"`
	Backedges  int           `json:"backedges"`
	ChainBound int64         `json:"chain_bound"`
	Violations []SafetyClass `json:"violations,omitempty"`
}

func toGoldenCerts(rep *SafetyReport) map[string]goldenCert {
	out := map[string]goldenCert{}
	for _, s := range rep.Slices {
		out[s.Slice] = goldenCert{Budget: s.Budget, Static: s.Static, Paths: s.Paths, Backedges: s.Backedges, ChainBound: s.ChainBound}
	}
	for _, v := range rep.Violations {
		c := out[v.Slice]
		c.Violations = append(c.Violations, v.Class)
		out[v.Slice] = c
	}
	return out
}

// TestSafetyCertificatesGolden pins the exact certificate of every slice the
// verifier analyses over the benchmark suite: each benchmark adapted under
// the chaining, basic and unroll-2 models, both hand adaptations, and every
// InjectUnsafe mutant of each of those programs. The other safety tests check
// properties (budget > 0, the injected class is reported); this one catches
// any change to the numbers themselves. Re-baseline knowingly with
// `go test ./internal/ssp -run TestSafetyCertificatesGolden -update`.
func TestSafetyCertificatesGolden(t *testing.T) {
	got := map[string]map[string]goldenCert{}
	record := func(name string, p *ir.Program) {
		got[name] = toGoldenCerts(AnalyzeSafety(p, DefaultSafetyCeiling))
		for _, class := range UnsafeClasses {
			m, ok := InjectUnsafe(p, class)
			if !ok {
				t.Fatalf("%s: no slice to inject %q into", name, class)
			}
			got[name+"/"+string(class)] = toGoldenCerts(AnalyzeSafety(m, DefaultSafetyCeiling))
		}
	}
	variants := []struct {
		name string
		opt  Options
	}{
		{"chaining", DefaultOptions()},
		{"basic", func() Options { o := DefaultOptions(); o.Chaining = false; return o }()},
		{"unroll2", func() Options { o := DefaultOptions(); o.ChainUnroll = 2; return o }()},
	}
	for _, spec := range workloads.All() {
		for _, v := range variants {
			_, enh, rep, _ := adaptWorkload(t, spec.Name, v.opt)
			name := spec.Name + "/" + v.name
			// The report Adapt attaches must be the certificate a fresh
			// analysis of the emitted binary gives.
			if fresh := AnalyzeSafety(enh, DefaultSafetyCeiling); !reflect.DeepEqual(rep.Safety, fresh) {
				t.Errorf("%s: self-certified report differs from a fresh analysis", name)
			}
			record(name, enh)
		}
	}
	for _, name := range []string{"mcf", "health"} {
		spec, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		orig, _ := spec.Build(spec.TestScale)
		hand, err := handtuned.Adapt(name, orig)
		if err != nil {
			t.Fatal(err)
		}
		record(name+"/hand", hand)
	}

	path := filepath.Join("testdata", "safety_certificates.json")
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update): %v", err)
	}
	var want map[string]map[string]goldenCert
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if !reflect.DeepEqual(got[name], want[name]) {
			t.Errorf("%s:\n got  %+v\n want %+v", name, got[name], want[name])
		}
	}
}
