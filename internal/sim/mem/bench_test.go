package mem

import "testing"

// BenchmarkMemoryLoadStore measures the word access path — radix walk plus
// last-page cache — over a footprint that spans many pages.
func BenchmarkMemoryLoadStore(b *testing.B) {
	m := NewMemory()
	const span = 1 << 22 // 4 MiB, 1024 pages
	for addr := uint64(0); addr < span; addr += 4096 {
		m.Store(addr, addr)
	}
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		addr := uint64(i*2654435761) % span
		m.Store(addr, uint64(i))
		sum += m.Load(addr ^ 4096)
	}
	_ = sum
}

// BenchmarkHierarchyAccess measures one timed access through TLB, cache
// levels, fill buffer, and the dense per-load stat table — the innermost
// operation of every simulated memory instruction.
func BenchmarkHierarchyAccess(b *testing.B) {
	h := NewHierarchy(Default())
	h.PresizeLoads(64)
	b.ResetTimer()
	var now int64
	for i := 0; i < b.N; i++ {
		addr := uint64(i*2654435761) % (1 << 24)
		h.Access(i&63, addr, now)
		now += 3
	}
}
