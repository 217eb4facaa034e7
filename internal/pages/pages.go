// Package pages is the sparse page table behind both a program's static data
// image (ir.DataImage) and the simulator's flat memory (mem.Memory). A table
// can map a frame it does not own — a sealed image's page, shared by every
// memory that installs the image — beside the frames it owns, so an image
// installs into a machine by pointer, not by copy.
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

// Table maps page indices to frames of type P. A frame is owned (allocated
// by Ensure, or handed over by Set) or shared (mapped by Set from elsewhere,
// for the table's holder to read but never write). The zero Table is empty.
type Table[P any] struct {
	root   []*leaf[P]            // dense first level, grown up to rootMax entries
	out    map[uint64]outlier[P] // outliers beyond the radix span
	outIdx []uint64              // out's page indices, ascending
	n      int                   // resident pages
	shared int                   // resident pages whose frame is shared
	leaves int                   // allocated leaf tables
}

// leaf is one second-level table: a frame pointer and a shared bit per page.
type leaf[P any] struct {
	p      [1 << leafBits]*P
	shared [1 << leafBits / 64]uint64
}

// outlier is one page beyond the radix span.
type outlier[P any] struct {
	p      *P
	shared bool
}

// Lookup returns page idx, or nil when it is not resident.
func (t *Table[P]) Lookup(idx uint64) *P {
	r := idx >> leafBits
	if r < uint64(len(t.root)) {
		if l := t.root[r]; l != nil {
			return l.p[idx&leafMask]
		}
		return nil
	}
	if r < rootMax {
		return nil
	}
	return t.out[idx].p
}

// Entry returns page idx and whether its frame is shared; p is nil when
// the page is not resident.
func (t *Table[P]) Entry(idx uint64) (p *P, shared bool) {
	r := idx >> leafBits
	if r >= rootMax {
		o := t.out[idx]
		return o.p, o.shared
	}
	if r < uint64(len(t.root)) {
		if l := t.root[r]; l != nil {
			i := idx & leafMask
			return l.p[i], l.shared[i/64]>>(i%64)&1 != 0
		}
	}
	return nil, false
}

// Ensure returns page idx, allocating an owned frame (and any radix level
// above it) on first touch.
func (t *Table[P]) Ensure(idx uint64) *P {
	if p := t.Lookup(idx); p != nil {
		return p
	}
	p := new(P)
	t.Set(idx, p, false)
	return p
}

// Set maps page idx to the frame p, shared or owned, and returns the frame
// it displaces, if any, and whether that one was shared.
func (t *Table[P]) Set(idx uint64, p *P, shared bool) (old *P, oldShared bool) {
	if r := idx >> leafBits; r >= rootMax {
		if t.out == nil {
			t.out = make(map[uint64]outlier[P])
		}
		o, ok := t.out[idx]
		if !ok {
			i, _ := slices.BinarySearch(t.outIdx, idx)
			t.outIdx = slices.Insert(t.outIdx, i, idx)
		}
		old, oldShared = o.p, o.shared
		t.out[idx] = outlier[P]{p, shared}
	} else {
		if r >= uint64(len(t.root)) {
			t.grow(max(2*len(t.root), int(r)+1))
		}
		l := t.root[r]
		if l == nil {
			l = new(leaf[P])
			t.root[r] = l
			t.leaves++
		}
		i := idx & leafMask
		bit := uint64(1) << (i % 64)
		old, oldShared = l.p[i], l.shared[i/64]&bit != 0
		l.p[i] = p
		if shared {
			l.shared[i/64] |= bit
		} else {
			l.shared[i/64] &^= bit
		}
	}
	if old == nil {
		t.n++
	}
	if oldShared {
		t.shared--
	}
	if shared {
		t.shared++
	}
	return old, oldShared
}

// Clear empties the table, keeping its radix levels for reuse, and hands
// each owned frame to owned (shared frames are simply dropped).
func (t *Table[P]) Clear(owned func(p *P)) {
	for _, l := range t.root {
		if l == nil {
			continue
		}
		for i, p := range l.p {
			if p != nil && l.shared[i/64]>>(i%64)&1 == 0 {
				owned(p)
			}
		}
		*l = leaf[P]{}
	}
	for _, o := range t.out {
		if !o.shared {
			owned(o.p)
		}
	}
	clear(t.out)
	t.outIdx = t.outIdx[:0]
	t.n, t.shared = 0, 0
}

// grow widens the first level to n entries, at most rootMax.
func (t *Table[P]) grow(n int) {
	grown := make([]*leaf[P], min(n, rootMax))
	copy(grown, t.root)
	t.root = grown
}

// Len returns the number of resident pages, shared and owned.
func (t *Table[P]) Len() int { return t.n }

// Shared returns the number of resident pages whose frame is shared.
func (t *Table[P]) Shared() int { return t.shared }

// Leaves returns the number of leaf tables allocated.
func (t *Table[P]) Leaves() int { return t.leaves }

// Each visits every resident page, shared and owned, in ascending
// page-index order (outliers sort after the radix by construction). It
// neither allocates nor writes the table, so a shared table is safe to
// visit concurrently.
func (t *Table[P]) Each(f func(idx uint64, p *P)) {
	for r, l := range t.root {
		if l == nil {
			continue
		}
		for i, p := range l.p {
			if p != nil {
				f(uint64(r)<<leafBits|uint64(i), p)
			}
		}
	}
	for _, idx := range t.outIdx {
		f(idx, t.out[idx].p)
	}
}

// Copy fills dst's page for each page of src, allocating the missing ones
// after sizing dst's first level once to span src's. Frames dst already
// holds are reused, so dst must own every frame src's pages land on.
func Copy[P, Q any](dst *Table[P], src *Table[Q], fill func(d *P, s *Q)) {
	if len(dst.root) < len(src.root) {
		dst.grow(len(src.root))
	}
	src.Each(func(idx uint64, s *Q) { fill(dst.Ensure(idx), s) })
}
