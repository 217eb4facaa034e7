// Package mem models the data side of the research Itanium memory system of
// Table 1: a flat 64-bit word memory, a three-level set-associative cache
// hierarchy (L1D 16KB/4-way/2cyc, L2 256KB/4-way/14cyc, L3 3MB/12-way/30cyc,
// memory 230 cycles, 64-byte lines), and a 16-entry fill buffer that tracks
// lines in transit so that accesses to an already-requested line become
// partial hits — the "Partial" categories of Figure 9.
package mem

import (
	"encoding/binary"
	"io"
	"sort"
)

// pageBits selects a 4KB page (512 words) for the sparse memory.
const pageBits = 9

type page [1 << pageBits]uint64

// The page table is a two-level radix: a dense first-level slice of leaf
// tables covering the low part of the address space (where the linker
// actually places code and data), with a map fallback for outlier pages
// beyond that span. leafBits pages per leaf × rootMax leaves covers
// 2^24 pages = 64GB of address space before any access ever touches the
// fallback map, and the fully grown first level is only 64KB of pointers.
const (
	leafBits = 11
	leafMask = 1<<leafBits - 1
	rootMax  = 1 << 13
)

type leaf [1 << leafBits]*page

// Memory is a sparse, paged, word-granular flat memory. Addresses are byte
// addresses; accesses are aligned to 8 bytes by masking. Loads of never
// written locations return zero, which makes speculative p-slice execution
// naturally non-faulting (§2: precomputation may be wrong, never harmful).
//
// Lookups are map-free on the hot path: a one-entry last-page cache catches
// the page locality of real access streams, and a miss walks the two-level
// radix with shifts and bounds checks only.
type Memory struct {
	root     []*leaf          // dense first level, grown up to rootMax entries
	out      map[uint64]*page // outliers beyond the radix span
	lastIdx  uint64           // page index of the cached page
	lastPage *page            // one-entry lookup cache (nil = cold)
	resident int
}

// NewMemory returns an empty memory.
func NewMemory() *Memory { return &Memory{} }

// lookupPage walks the radix (or the outlier map) for page idx; nil when the
// page is not resident.
func (m *Memory) lookupPage(idx uint64) *page {
	r := idx >> leafBits
	if r < uint64(len(m.root)) {
		if l := m.root[r]; l != nil {
			return l[idx&leafMask]
		}
		return nil
	}
	if r < rootMax {
		return nil
	}
	return m.out[idx]
}

// ensurePage returns the page frame for idx, allocating it (and any radix
// level above it) on first touch.
func (m *Memory) ensurePage(idx uint64) *page {
	r := idx >> leafBits
	if r < rootMax {
		if r >= uint64(len(m.root)) {
			n := 2 * len(m.root)
			if n <= int(r) {
				n = int(r) + 1
			}
			if n > rootMax {
				n = rootMax
			}
			grown := make([]*leaf, n)
			copy(grown, m.root)
			m.root = grown
		}
		l := m.root[r]
		if l == nil {
			l = new(leaf)
			m.root[r] = l
		}
		p := l[idx&leafMask]
		if p == nil {
			p = new(page)
			l[idx&leafMask] = p
			m.resident++
		}
		return p
	}
	if m.out == nil {
		m.out = make(map[uint64]*page)
	}
	p := m.out[idx]
	if p == nil {
		p = new(page)
		m.out[idx] = p
		m.resident++
	}
	return p
}

// Load reads the 64-bit word at addr (aligned down).
func (m *Memory) Load(addr uint64) uint64 {
	w := addr >> 3
	idx := w >> pageBits
	if p := m.lastPage; p != nil && idx == m.lastIdx {
		return p[w&(1<<pageBits-1)]
	}
	p := m.lookupPage(idx)
	if p == nil {
		return 0
	}
	m.lastIdx, m.lastPage = idx, p
	return p[w&(1<<pageBits-1)]
}

// Store writes the 64-bit word at addr (aligned down).
func (m *Memory) Store(addr, val uint64) {
	w := addr >> 3
	idx := w >> pageBits
	if p := m.lastPage; p != nil && idx == m.lastIdx {
		p[w&(1<<pageBits-1)] = val
		return
	}
	p := m.ensurePage(idx)
	m.lastIdx, m.lastPage = idx, p
	p[w&(1<<pageBits-1)] = val
}

// forEachPage visits every resident page in ascending page-index order.
// Outlier pages always sort after radix pages (their indices are beyond the
// radix span by construction).
func (m *Memory) forEachPage(f func(idx uint64, p *page)) {
	for r, l := range m.root {
		if l == nil {
			continue
		}
		for i, p := range l {
			if p != nil {
				f(uint64(r)<<leafBits|uint64(i), p)
			}
		}
	}
	if len(m.out) == 0 {
		return
	}
	idxs := make([]uint64, 0, len(m.out))
	for idx := range m.out {
		idxs = append(idxs, idx)
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		f(idx, m.out[idx])
	}
}

// Reset zeroes every resident page in place, keeping the page frames and the
// radix layout for reuse. A reset memory is observationally identical to a
// fresh one — loads return zero everywhere and Checksum ignores zero words —
// but re-installing a snapshot into it allocates nothing.
func (m *Memory) Reset() {
	m.forEachPage(func(_ uint64, p *page) { *p = page{} })
	m.lastPage = nil
}

// Snapshot is a data image pre-paged into this memory's layout, built once
// and installed many times: installing a snapshot copies whole pages
// instead of storing the image word by word.
// The predecode layer builds one per sealed ir.DataImage, so every machine
// over every image that shares that data (every matrix cell, every adapted
// binary, every differential run) skips the map walk.
type Snapshot struct {
	idxs  []uint64
	pages []*page
}

// Pages returns the number of pages the snapshot holds.
func (s *Snapshot) Pages() int { return len(s.pages) }

// NewSnapshot pre-pages a data image given by its range function: each
// calls store once per word (ir.DataImage.Range has this shape). The
// resident page set and contents are exactly those storing every word into
// a fresh memory would produce — including pages that exist only to hold
// explicit zero words — so installing the snapshot is observationally
// identical to installing the words one by one.
func NewSnapshot(each func(store func(addr, val uint64))) *Snapshot {
	m := NewMemory()
	each(m.Store)
	s := &Snapshot{
		idxs:  make([]uint64, 0, m.resident),
		pages: make([]*page, 0, m.resident),
	}
	m.forEachPage(func(idx uint64, p *page) {
		s.idxs = append(s.idxs, idx)
		s.pages = append(s.pages, p)
	})
	return s
}

// InstallSnapshot copies a pre-paged image into memory, one page copy per
// resident page. The snapshot itself is never aliased and stays reusable.
// Installing into a memory that already holds frames for the snapshot's
// pages (a Reset machine being reused) copies into the existing frames and
// allocates nothing.
func (m *Memory) InstallSnapshot(s *Snapshot) {
	// Size the radix first level once to span the snapshot's layout, instead
	// of growing it incrementally page by page. idxs is sorted, so the last
	// index inside the radix span bounds the first level.
	for i := len(s.idxs) - 1; i >= 0; i-- {
		if r := s.idxs[i] >> leafBits; r < rootMax {
			if int(r) >= len(m.root) {
				grown := make([]*leaf, r+1)
				copy(grown, m.root)
				m.root = grown
			}
			break
		}
	}
	for i, idx := range s.idxs {
		*m.ensurePage(idx) = *s.pages[i]
	}
}

// WriteTo writes the snapshot's canonical encoding to w: each resident
// page's index followed by its words, little-endian, in increasing page
// order. Snapshots with equal encodings install identical memories, so a
// hash of the encoding can key a content-addressed cache.
func (s *Snapshot) WriteTo(w io.Writer) (int64, error) {
	buf := make([]byte, 0, 8*(1+len(page{})))
	var n int64
	for i, idx := range s.idxs {
		buf = binary.LittleEndian.AppendUint64(buf[:0], idx)
		for _, v := range s.pages[i] {
			buf = binary.LittleEndian.AppendUint64(buf, v)
		}
		m, err := w.Write(buf)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Footprint returns the number of resident pages (for tests).
func (m *Memory) Footprint() int { return m.resident }

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
	m.forEachPage(func(idx uint64, p *page) {
		for i, v := range p {
			if v == 0 {
				continue
			}
			addr := (idx<<pageBits | uint64(i)) << 3
			word(addr)
			word(v)
		}
	})
	return h
}
