package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"math/bits"
	"sync"
	"sync/atomic"

	"ssp/internal/pages"
)

// DataImage is a program's static data image: 64-bit words at byte
// addresses, installed into simulated memory before execution (the workload
// builders' heaps live here). Its words live in the simulator's page layout,
// so a machine installs it by mapping its page frames, copying nothing.
// Program.SetWord writes it in place until the image is first shared — by
// Clone, Link, the lifter, or Frames — which seals it. From then on it is
// immutable: every program, linked image and machine memory that carries it
// shares the one value by pointer, and a later SetWord on any program
// copies the pages into a fresh image of its own first. Post-pass
// adaptation rewrites code and never writes data, so an adapted binary and
// its original carry one image.
//
// A word written as zero is held: Len, Addrs, Range and Format count and
// print it. A nil *DataImage is an empty image.
type DataImage struct {
	t      pages.Table[dataPage]
	n      int // words held
	sealed atomic.Bool

	sumOnce sync.Once
	sum     [sha256.Size]byte
}

// dataPage is one page of an image: a bit per word the image holds, and the
// words, allocated apart so they fill a 4 KB size class exactly.
type dataPage struct {
	held  [len(pages.Page{}) / 64]uint64
	words *pages.Page
}

const wordMask = 1<<pages.Bits - 1

// empty is the image a nil *DataImage reads as.
var empty DataImage

// or returns d, or the empty image if d is nil.
func (d *DataImage) or() *DataImage {
	if d == nil {
		return &empty
	}
	return d
}

// Word returns the word at addr (aligned down), or 0 if the image does not
// hold it.
func (d *DataImage) Word(addr uint64) uint64 {
	w := addr >> 3
	if p := d.or().t.Lookup(w >> pages.Bits); p != nil {
		return p.words[w&wordMask]
	}
	return 0
}

// Len returns the number of words the image holds.
func (d *DataImage) Len() int { return d.or().n }

// Pages returns the number of pages the image holds.
func (d *DataImage) Pages() int { return d.or().t.Len() }

// Addrs returns the image's addresses in increasing order.
func (d *DataImage) Addrs() []uint64 {
	if d == nil {
		return nil
	}
	addrs := make([]uint64, 0, d.n)
	d.Range(func(a, _ uint64) { addrs = append(addrs, a) })
	return addrs
}

// Range calls fn for every word the image holds, in increasing address
// order.
func (d *DataImage) Range(fn func(addr, val uint64)) {
	d.or().t.Each(func(idx uint64, p *dataPage) {
		for i, held := range p.held {
			for ; held != 0; held &= held - 1 {
				w := i*64 + bits.TrailingZeros64(held)
				fn((idx<<pages.Bits|uint64(w))<<3, p.words[w])
			}
		}
	})
}

// Frames seals the image and calls fn with each of its pages' words,
// explicit-zero pages too, in increasing page order. The frames stay the
// image's and are shared with every caller: fn, and whatever it keeps them
// in, must only read them.
func (d *DataImage) Frames(fn func(idx uint64, p *pages.Page)) {
	d.seal()
	d.or().t.Each(func(idx uint64, p *dataPage) { fn(idx, p.words) })
}

// Sum seals the image and returns the SHA-256, computed once, of its page
// encoding: each page's index and then its words, little-endian, in
// increasing page order. Images with equal sums install identical memories.
func (d *DataImage) Sum() [sha256.Size]byte {
	d = d.or()
	d.seal()
	d.sumOnce.Do(func() {
		h := sha256.New()
		buf := make([]byte, 0, 8*(1+len(pages.Page{})))
		d.t.Each(func(idx uint64, p *dataPage) {
			buf = binary.LittleEndian.AppendUint64(buf[:0], idx)
			for _, v := range p.words {
				buf = binary.LittleEndian.AppendUint64(buf, v)
			}
			h.Write(buf)
		})
		h.Sum(d.sum[:0])
	})
	return d.sum
}

// seal marks the image shared; SetWord copies a sealed image before writing.
func (d *DataImage) seal() {
	if d != nil {
		d.sealed.Store(true)
	}
}

// SetWord stores a 64-bit word into the program's static data image at addr
// (aligned down), copying the image first if it is sealed (shared with a
// clone or a linked image), so the other holders never see the write.
func (p *Program) SetWord(addr, val uint64) {
	d := p.Data
	if d == nil || d.sealed.Load() {
		q := &DataImage{n: d.Len()}
		pages.Copy(&q.t, &d.or().t, func(dst, src *dataPage) {
			words := *src.words
			*dst = dataPage{src.held, &words}
		})
		p.Data, d = q, q
	}
	w := addr >> 3
	pg := d.t.Ensure(w >> pages.Bits)
	if pg.words == nil {
		pg.words = new(pages.Page)
	}
	i := w & wordMask
	if bit := uint64(1) << (i % 64); pg.held[i/64]&bit == 0 {
		pg.held[i/64] |= bit
		d.n++
	}
	pg.words[i] = val
}

// sharedData seals the program's data image for sharing and returns it.
func (p *Program) sharedData() *DataImage {
	p.Data.seal()
	return p.Data
}
