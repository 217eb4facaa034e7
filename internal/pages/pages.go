// Package pages is the sparse page table behind both a program's static data
// image (ir.DataImage) and the simulator's flat memory (mem.Memory), so an
// image installs into a machine one page copy per page.
package pages

import "slices"

// Bits selects a 4KB page: 1<<Bits words.
const Bits = 9

// Page is one page of words.
type Page [1 << Bits]uint64

// The table is a two-level radix: a dense first-level slice of leaf tables
// covering the low part of the address space (where the linker actually
// places code and data), with a map fallback for outlier pages beyond that
// span. leafBits pages per leaf × rootMax leaves covers 2^24 pages = 64GB of
// address space before any access ever touches the fallback map, and the
// fully grown first level is only 64KB of pointers.
const (
	leafBits = 11
	leafMask = 1<<leafBits - 1
	rootMax  = 1 << 13
)

// LeafPages is the size of one leaf table in pages.
const LeafPages = (1 << leafBits) * 8 / (8 << Bits)

// Table maps page indices to pages of type P, allocated on first touch. The
// zero Table is empty.
type Table[P any] struct {
	root   []*[1 << leafBits]*P // dense first level, grown up to rootMax entries
	out    map[uint64]*P        // outliers beyond the radix span
	n      int                  // resident pages
	leaves int                  // allocated leaf tables
}

// Lookup returns page idx, or nil when it is not resident.
func (t *Table[P]) Lookup(idx uint64) *P {
	r := idx >> leafBits
	if r < uint64(len(t.root)) {
		if l := t.root[r]; l != nil {
			return l[idx&leafMask]
		}
		return nil
	}
	if r < rootMax {
		return nil
	}
	return t.out[idx]
}

// Ensure returns page idx, allocating it (and any radix level above it) on
// first touch.
func (t *Table[P]) Ensure(idx uint64) *P {
	r := idx >> leafBits
	if r >= rootMax {
		if t.out == nil {
			t.out = make(map[uint64]*P)
		}
		p := t.out[idx]
		if p == nil {
			p = new(P)
			t.out[idx] = p
			t.n++
		}
		return p
	}
	if r >= uint64(len(t.root)) {
		t.grow(max(2*len(t.root), int(r)+1))
	}
	l := t.root[r]
	if l == nil {
		l = new([1 << leafBits]*P)
		t.root[r] = l
		t.leaves++
	}
	p := l[idx&leafMask]
	if p == nil {
		p = new(P)
		l[idx&leafMask] = p
		t.n++
	}
	return p
}

// grow widens the first level to n entries, at most rootMax.
func (t *Table[P]) grow(n int) {
	grown := make([]*[1 << leafBits]*P, min(n, rootMax))
	copy(grown, t.root)
	t.root = grown
}

// Len returns the number of resident pages.
func (t *Table[P]) Len() int { return t.n }

// Leaves returns the number of leaf tables allocated.
func (t *Table[P]) Leaves() int { return t.leaves }

// Each visits every resident page in ascending page-index order (outliers
// sort after the radix by construction).
func (t *Table[P]) Each(f func(idx uint64, p *P)) {
	for r, l := range t.root {
		if l == nil {
			continue
		}
		for i, p := range l {
			if p != nil {
				f(uint64(r)<<leafBits|uint64(i), p)
			}
		}
	}
	idxs := make([]uint64, 0, len(t.out))
	for idx := range t.out {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		f(idx, t.out[idx])
	}
}

// Copy fills dst's page for each page of src, allocating the missing ones
// after sizing dst's first level once to span src's. Frames dst already
// holds are reused.
func Copy[P, Q any](dst *Table[P], src *Table[Q], fill func(d *P, s *Q)) {
	if len(dst.root) < len(src.root) {
		dst.grow(len(src.root))
	}
	src.Each(func(idx uint64, s *Q) { fill(dst.Ensure(idx), s) })
}
