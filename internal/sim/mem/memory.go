// Package mem models the data side of the research Itanium memory system of
// Table 1: a flat 64-bit word memory, a three-level set-associative cache
// hierarchy (L1D 16KB/4-way/2cyc, L2 256KB/4-way/14cyc, L3 3MB/12-way/30cyc,
// memory 230 cycles, 64-byte lines), and a 16-entry fill buffer that tracks
// lines in transit so that accesses to an already-requested line become
// partial hits — the "Partial" categories of Figure 9.
package mem

import (
	"ssp/internal/ir"
	"ssp/internal/pages"
)

// Memory is a sparse, paged, word-granular flat memory. Addresses are byte
// addresses; accesses are aligned to 8 bytes by masking. Loads of never
// written locations return zero, which makes speculative p-slice execution
// naturally non-faulting (§2: precomputation may be wrong, never harmful).
//
// Lookups are map-free on the hot path: a one-entry last-page cache catches
// the page locality of real access streams, and a miss walks the page
// table's two-level radix with shifts and bounds checks only.
type Memory struct {
	t        pages.Table[pages.Page]
	lastIdx  uint64      // page index of the cached page
	lastPage *pages.Page // one-entry lookup cache (nil = cold)
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

const wordMask = 1<<pages.Bits - 1

// Load reads the 64-bit word at addr (aligned down).
func (m *Memory) Load(addr uint64) uint64 {
	w := addr >> 3
	idx := w >> pages.Bits
	if p := m.lastPage; p != nil && idx == m.lastIdx {
		return p[w&wordMask]
	}
	p := m.t.Lookup(idx)
	if p == nil {
		return 0
	}
	m.lastIdx, m.lastPage = idx, p
	return p[w&wordMask]
}

// Store writes the 64-bit word at addr (aligned down).
func (m *Memory) Store(addr, val uint64) {
	w := addr >> 3
	idx := w >> pages.Bits
	if p := m.lastPage; p != nil && idx == m.lastIdx {
		p[w&wordMask] = val
		return
	}
	p := m.t.Ensure(idx)
	m.lastIdx, m.lastPage = idx, p
	p[w&wordMask] = val
}

// Reset zeroes every resident page in place, keeping the page frames and the
// radix layout for reuse. A reset memory is observationally identical to a
// fresh one — loads return zero everywhere and Checksum ignores zero words —
// but re-installing an image into it allocates nothing.
func (m *Memory) Reset() {
	m.t.Each(func(_ uint64, p *pages.Page) { *p = pages.Page{} })
	m.lastPage = nil
}

// Install copies a data image into memory, one page copy per page, so a
// page of explicit zeros still scrubs its frame. A Reset memory that already
// holds the frames allocates nothing.
func (m *Memory) Install(d *ir.DataImage) { d.CopyTo(&m.t) }

// Footprint returns the number of resident pages (for tests).
func (m *Memory) Footprint() int { return m.t.Len() }

// Checksum digests the memory contents as FNV-1a over (address, value) pairs
// of every non-zero word, visited in ascending page order. Zero words never
// contribute, so a memory with an all-zero resident page checksums identically
// to one where the page was never touched — two runs agree iff their
// observable contents agree, regardless of allocation history.
func (m *Memory) Checksum() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime64
			v >>= 8
		}
	}
	m.t.Each(func(idx uint64, p *pages.Page) {
		for i, v := range p {
			if v == 0 {
				continue
			}
			addr := (idx<<pages.Bits | uint64(i)) << 3
			word(addr)
			word(v)
		}
	})
	return h
}
