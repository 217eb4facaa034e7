package ir

import (
	"slices"
	"sync"
	"sync/atomic"
)

// DataImage is a program's static data image: 64-bit words at byte
// addresses, installed into simulated memory before execution (the workload
// builders' heaps live here). Program.SetWord writes it in place until the
// image is first shared — by Clone, Link, or the lifter — which seals it.
// From then on it is immutable: every program and linked image that carries
// it shares the one value by pointer, and a later SetWord on any of them
// copies the words into a fresh image of its own first. Post-pass adaptation
// rewrites code and never writes data, so an adapted binary and its
// original carry one image.
//
// A nil *DataImage is an empty image.
type DataImage struct {
	words  map[uint64]uint64
	sealed atomic.Bool

	// memoOnce/memo cache one value derived from the sealed words (the
	// predecode layer's pre-paged snapshot and content hash), held as an
	// opaque any to keep ir free of simulator imports. The memo lives and
	// dies with the image.
	memoOnce sync.Once
	memo     any
}

// Word returns the word at addr, or 0 if the image does not hold it.
func (d *DataImage) Word(addr uint64) uint64 {
	if d == nil {
		return 0
	}
	return d.words[addr]
}

// Len returns the number of words the image holds.
func (d *DataImage) Len() int {
	if d == nil {
		return 0
	}
	return len(d.words)
}

// Addrs returns the image's addresses in increasing order.
func (d *DataImage) Addrs() []uint64 {
	if d == nil {
		return nil
	}
	addrs := make([]uint64, 0, len(d.words))
	for a := range d.words {
		addrs = append(addrs, a)
	}
	slices.Sort(addrs)
	return addrs
}

// Range calls fn for every word the image holds, in no particular order.
func (d *DataImage) Range(fn func(addr, val uint64)) {
	if d == nil {
		return
	}
	for a, v := range d.words {
		fn(a, v)
	}
}

// Memo seals the image and returns the value build derives from it,
// invoking build at most once over the image's lifetime (concurrent callers
// block on the first build). Every caller must build the same kind of value:
// the image holds one memo.
func (d *DataImage) Memo(build func() any) any {
	d.seal()
	d.memoOnce.Do(func() { d.memo = build() })
	return d.memo
}

// seal marks the image shared; SetWord copies a sealed image before writing.
func (d *DataImage) seal() {
	if d != nil {
		d.sealed.Store(true)
	}
}

// SetWord stores a 64-bit word into the program's static data image,
// copying the image first if it is sealed (shared with a clone or a linked
// image), so the other holders never see the write.
func (p *Program) SetWord(addr, val uint64) {
	if p.Data == nil || p.Data.sealed.Load() {
		q := &DataImage{words: make(map[uint64]uint64, p.Data.Len()+1)}
		p.Data.Range(func(a, v uint64) { q.words[a] = v })
		p.Data = q
	}
	p.Data.words[addr] = val
}

// sharedData seals the program's data image for sharing and returns it.
func (p *Program) sharedData() *DataImage {
	p.Data.seal()
	return p.Data
}
