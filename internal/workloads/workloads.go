// Package workloads provides the seven pointer-intensive benchmark kernels
// of §4.1, written directly in the IR: em3d, health, mst, treeadd.df,
// treeadd.bf (Olden) and mcf, vpr (SPEC CPU2000). Each kernel reproduces the
// memory-access shape that makes its namesake delinquent — pointer chains
// over shuffled heaps that defeat stride prefetching and stall in-order
// pipelines — while staying small enough to simulate at cycle level.
//
// Every program stores a checksum to ResultAddr and halts; Build returns the
// expected value so tests and experiments can verify that simulation (and
// SSP adaptation, which must not alter architectural state, §2) computed the
// right answer.
package workloads

import (
	"fmt"
	"math/rand"
	"sync"

	"ssp/internal/ir"
)

// ResultAddr is where every workload stores its final checksum.
const ResultAddr uint64 = 0x2000

// heapBase is where workload heaps start.
const heapBase uint64 = 0x100000

// Spec describes one benchmark kernel.
type Spec struct {
	// Name is the benchmark name as used in the paper's tables.
	Name string
	// Description summarizes the kernel.
	Description string
	// Scale is the element count used by the experiment drivers (sized so
	// the working set exceeds the Table 1 L3 capacity).
	Scale int
	// TestScale is a small element count for unit tests against the
	// scaled-down memory system.
	TestScale int
	// Build constructs the program at the given scale, which must be at
	// least 1, and returns it with the expected checksum.
	Build func(scale int) (*ir.Program, uint64)
	// MinSlices is the number of independent p-slices the adaptation tool is
	// expected to build for this kernel (0 means 1). The single-hot-region
	// kernels leave it at zero; the multi-phase variants declare their phase
	// count so the Table 2 envelope check can catch a portfolio regression.
	MinSlices int
}

// All returns the benchmark specs in the paper's order: the seven
// single-region kernels of §4.1 first, then the multi-phase variants that
// restore the several-hot-routines shape of the full benchmarks (Table 2's
// 2-8 slices per binary), then the scaled random-program families.
func All() []Spec {
	return []Spec{
		Em3d(),
		Health(),
		Mst(),
		TreeaddDF(),
		TreeaddBF(),
		Mcf(),
		Vpr(),
		Em3dMulti(),
		McfMulti(),
		MstMulti(),
		Rand2p(),
		Rand3p(),
	}
}

// byName indexes All by name, built on first use.
var byName = sync.OnceValue(func() map[string]Spec {
	m := make(map[string]Spec)
	for _, s := range All() {
		m[s.Name] = s
	}
	return m
})

// ByName returns the named spec.
func ByName(name string) (Spec, error) {
	if s, ok := byName()[name]; ok {
		return s, nil
	}
	return Spec{}, fmt.Errorf("workloads: unknown benchmark %q", name)
}

// heap lays out fixed-size records at shuffled addresses, destroying the
// allocation-order locality a real long-running program loses to heap churn.
type heap struct {
	p       *ir.Program
	base    uint64
	slot    int
	order   []int
	recSize uint64
}

// newHeap reserves n records of recSize bytes (rounded up to a multiple of
// the 64-byte line) at base, visited in a seeded random order.
func newHeap(p *ir.Program, base uint64, n int, recSize uint64, seed int64) *heap {
	if recSize%64 != 0 {
		recSize = (recSize/64 + 1) * 64
	}
	return &heap{
		p:       p,
		base:    base,
		order:   rand.New(rand.NewSource(seed)).Perm(n),
		recSize: recSize,
	}
}

// alloc returns the address of the next record.
func (h *heap) alloc() uint64 {
	a := h.base + uint64(h.order[h.slot])*h.recSize
	h.slot++
	return a
}

// end returns the first address beyond the heap.
func (h *heap) end() uint64 { return h.base + uint64(len(h.order))*h.recSize }

// epilogue stores the checksum register to ResultAddr and halts.
func epilogue(bb *ir.BlockBuilder, sumReg ir.Reg) {
	bb.MovI(28, int64(ResultAddr))
	bb.St(28, 0, sumReg)
	bb.Halt()
}
