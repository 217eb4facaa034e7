package ir_test

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/workloads"
)

// BenchmarkParseFormat parses and formats every built-in benchmark at its
// test size: the assembly layer a served source job pays on every request.
// One op is the whole suite.
func BenchmarkParseFormat(b *testing.B) {
	var srcs []string
	for _, spec := range workloads.All() {
		p, _ := spec.Build(spec.TestScale)
		srcs = append(srcs, ir.Format(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, src := range srcs {
			p, err := ir.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			if ir.Format(p) != src {
				b.Fatal("format does not round-trip")
			}
		}
	}
}
