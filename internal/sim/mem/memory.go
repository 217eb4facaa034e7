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
// A memory maps an installed data image's pages copy-on-write: the image is
// immutable and shared by every machine that installs it, and a memory owns
// only the pages it has stored to. The first store to an image page copies
// it into a frame of the memory's own; a store to a page the image lacks
// takes a zeroed one. Loads never copy.
//
// Lookups are map-free on the hot path: a one-entry last-page cache catches
// the page locality of real access streams, and a miss walks the page
// table's two-level radix with shifts and bounds checks only. Stores keep a
// second one-entry cache that only ever holds an owned page, so a store
// checks ownership only when that cache misses.
type Memory struct {
	t         pages.Table[pages.Page]
	lastIdx   uint64        // page index of the cached page
	lastPage  *pages.Page   // one-entry lookup cache (nil = cold)
	storeIdx  uint64        // page index of the cached owned page
	storePage *pages.Page   // one-entry store cache, always owned (nil = cold)
	free      []*pages.Page // owned frames Reset and Install released, for reuse
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
	if p := m.storePage; p != nil && idx == m.storeIdx {
		p[w&wordMask] = val
		return
	}
	m.own(idx)[w&wordMask] = val
}

// own returns page idx in a frame the memory owns, and caches it for stores
// and loads. A shared image page is copied into a recycled frame on its
// first store, and a page never touched gets a zeroed one.
func (m *Memory) own(idx uint64) *pages.Page {
	p, shared := m.t.Entry(idx)
	if p == nil || shared {
		f := m.frame()
		if p == nil {
			*f = pages.Page{}
		} else {
			*f = *p
		}
		m.t.Set(idx, f, false)
		p = f
	}
	m.storeIdx, m.storePage = idx, p
	m.lastIdx, m.lastPage = idx, p
	return p
}

// frame returns a recycled frame, or a new one; its contents are stale.
func (m *Memory) frame() *pages.Page {
	if n := len(m.free); n > 0 {
		f := m.free[n-1]
		m.free = m.free[:n-1]
		return f
	}
	return new(pages.Page)
}

// Reset empties the memory: it drops the installed image's shared pages and
// keeps the frames it owns for reuse, with the radix layout. A reset memory
// is observationally identical to a fresh one, and as long as a run stores
// to no more pages than earlier runs did, it allocates nothing.
func (m *Memory) Reset() {
	m.t.Clear(func(p *pages.Page) { m.free = append(m.free, p) })
	m.lastPage, m.storePage = nil, nil
}

// Install maps a data image's pages, explicit-zero pages too, into memory
// as shared frames, copying nothing: each one replaces whatever the memory
// held at that page, and an owned frame it displaces is kept for reuse.
// Pages outside the image are left as they are.
func (m *Memory) Install(d *ir.DataImage) {
	d.Frames(func(idx uint64, p *pages.Page) {
		if old, shared := m.t.Set(idx, p, true); old != nil && !shared {
			m.free = append(m.free, old)
		}
	})
	m.lastPage, m.storePage = nil, nil
}

// Footprint returns the number of resident pages, shared and owned (for
// tests).
func (m *Memory) Footprint() int { return m.t.Len() }

// Owned returns the number of pages the memory owns: those it has stored
// to since its last Reset, less any an Install has mapped over since (for
// tests).
func (m *Memory) Owned() int { return m.t.Len() - m.t.Shared() }

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
