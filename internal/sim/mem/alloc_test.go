package mem

import (
	"testing"

	"ssp/internal/ir"
)

// TestAccessPathZeroAllocs pins the per-access hot path — Memory.Load/Store,
// Hierarchy.Access, Prefetch, and fill-buffer drain — to exactly zero heap
// allocations once warm. Every structure on this path is preallocated: the
// radix page table, the dense per-ID stat table, the fixed fill buffer, and
// the ring-buffer prefetch window with its open-addressed line set. Any
// regression here multiplies across the billions of simulated accesses an
// experiment matrix performs.
func TestAccessPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	cfg := Default()
	cfg.FillBufferEntries = 4
	h := NewHierarchy(cfg)
	h.PresizeLoads(64)
	m := NewMemory()

	// One deterministic access mix, used for both warm-up and measurement so
	// the measured pass touches only resident pages and existing stat slots.
	var now int64
	mix := func() {
		for i := uint64(0); i < 64; i++ {
			addr := i * 4096
			m.Store(addr, i)
			if m.Load(addr) != i {
				t.Fatal("load mismatch")
			}
			h.Access(int(i%32), addr, now)
			if i%4 == 0 {
				h.Prefetch(int(i%32), addr+64, now)
			}
			now += 17
		}
		now += 10_000 // let fills drain between passes
	}
	mix()

	if allocs := testing.AllocsPerRun(100, mix); allocs != 0 {
		t.Fatalf("access path allocates: %v allocs/run, want 0", allocs)
	}
}

// TestResetZeroAllocs pins a pooled machine's warm memory round to zero
// allocations: Hierarchy.Reset and Memory.Reset recycle their frames so
// exp.Suite's machine pool reuses layouts instead of rebuilding them per
// matrix cell, and installing an image, storing to its shared pages and
// Checksum (which visits the pages in ascending order) reuse them too, for
// pages beyond the radix span (byte address 1<<40) as well.
func TestResetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	h := NewHierarchy(Default())
	h.PresizeLoads(8)
	m := NewMemory()
	for i := uint64(0); i < 16; i++ {
		m.Store(i*4096, i)
		h.Access(int(i%8), i*4096, int64(i)*500)
	}
	h.Prefetch(0, 1<<20, 0)
	p := ir.NewProgram("main")
	for _, a := range []uint64{0x2000, 3 << 40, 1 << 40} {
		p.SetWord(a, a>>12)
	}
	cycle := func() {
		h.Reset()
		m.Reset()
		m.Install(p.Data)
		m.Store(1<<40, 9)
		m.Store(0x2000, 8)
		m.Checksum()
	}
	cycle()
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Fatalf("Reset allocates: %v allocs/run, want 0", allocs)
	}
}
