package mem

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssp/internal/ir"
)

func TestMemoryLoadStore(t *testing.T) {
	m := NewMemory()
	if got := m.Load(0x1234); got != 0 {
		t.Fatalf("uninitialized load = %d", got)
	}
	m.Store(0x1000, 42)
	if got := m.Load(0x1000); got != 42 {
		t.Fatalf("load = %d, want 42", got)
	}
	// Word aliasing: unaligned address hits the same word.
	if got := m.Load(0x1003); got != 42 {
		t.Fatalf("unaligned load = %d, want 42", got)
	}
	m.Store(0x1008, 7)
	if m.Load(0x1000) != 42 || m.Load(0x1008) != 7 {
		t.Fatal("adjacent words interfere")
	}
}

// image returns a data image holding words.
func image(words map[uint64]uint64) *ir.DataImage {
	p := ir.NewProgram("main")
	for a, v := range words {
		p.SetWord(a, v)
	}
	return p.Data
}

func TestMemoryInstall(t *testing.T) {
	m := NewMemory()
	m.Install(image(map[uint64]uint64{8: 1, 16: 2}))
	if m.Load(8) != 1 || m.Load(16) != 2 {
		t.Fatal("Install lost data")
	}
}

// TestQuickMemory: property — memory behaves like a map of aligned words.
func TestQuickMemory(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := NewMemory()
		ref := map[uint64]uint64{}
		for i := 0; i < 300; i++ {
			addr := uint64(r.Intn(1 << 20))
			if r.Intn(2) == 0 {
				v := r.Uint64()
				m.Store(addr, v)
				ref[addr>>3] = v
			} else if m.Load(addr) != ref[addr>>3] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestMemoryOutlierAddresses: addresses beyond the dense radix span fall to
// the outlier map but behave identically — including page sharing, Reset,
// image installs, and checksum ordering.
func TestMemoryOutlierAddresses(t *testing.T) {
	m := NewMemory()
	low, high := uint64(0x1000), uint64(1)<<40
	m.Store(low, 1)
	m.Store(high, 2)
	m.Store(high+8, 3)
	if m.Load(low) != 1 || m.Load(high) != 2 || m.Load(high+8) != 3 {
		t.Fatal("outlier store/load mismatch")
	}
	if m.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2 pages", m.Footprint())
	}
	m2 := NewMemory()
	m2.Install(image(map[uint64]uint64{low: 1, high: 2, high + 8: 3}))
	if m2.Load(high) != 2 || m2.Load(low) != 1 || m2.Load(high+8) != 3 {
		t.Fatal("install lost outlier page")
	}
	if m.Checksum() != m2.Checksum() {
		t.Fatal("checksum differs between stored and installed memory")
	}
	m.Reset()
	if m.Load(high) != 0 || m.Load(low) != 0 {
		t.Fatal("Reset left data")
	}
}

// TestInstallExplicitZeroPage: a page whose every word has been stored as
// zero is semantically identical to an untouched page — installing an image
// that carries such a page must produce the same loads and the same
// checksum as a memory that never touched it, and must scrub any stale data
// a reused frame held from a previous program.
func TestInstallExplicitZeroPage(t *testing.T) {
	// 0x10000 holds only an explicit zero word: the image has its page.
	s := image(map[uint64]uint64{0x2000: 42, 0x10000: 0})

	src := NewMemory()
	src.Install(s)
	if src.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2 (explicit-zero page dropped)", src.Footprint())
	}
	fresh := NewMemory()
	fresh.Store(0x2000, 42)
	if src.Checksum() != fresh.Checksum() {
		t.Fatal("explicit-zero page changed the checksum")
	}

	// Install over a dirty reused memory: frames are recycled, so the
	// explicit-zero page must overwrite whatever the frame last held.
	dst := NewMemory()
	dst.Store(0x10008, 7)
	dst.Store(0x2000, 7)
	dst.Store(0x999000, 7)
	dst.Reset()
	dst.Install(s)
	if got := dst.Load(0x10008); got != 0 {
		t.Fatalf("stale word survived install: %d", got)
	}
	if dst.Load(0x2000) != 42 || dst.Load(0x10000) != 0 {
		t.Fatal("install wrong data")
	}
	if dst.Load(0x999000) != 0 {
		t.Fatal("Reset+install left a page from the previous program")
	}
	if dst.Checksum() != src.Checksum() {
		t.Fatal("checksum differs after install over dirty memory")
	}

	// Without a Reset, the install itself overwrites each image page whole.
	dirty := NewMemory()
	dirty.Store(0x10008, 7)
	dirty.Install(s)
	if got := dirty.Load(0x10008); got != 0 {
		t.Fatalf("install left a stale word on an explicit-zero page: %d", got)
	}
}

// TestStoreCopiesSharedPage: memories that install one image share its
// pages; a store copies the page into a frame of the storing memory's own,
// so the image and every other memory keep the image's contents, and
// Reset+Install maps the image again. Radix and outlier pages behave alike.
func TestStoreCopiesSharedPage(t *testing.T) {
	high := uint64(1) << 40
	words := map[uint64]uint64{0x2000: 1, 0x2008: 2, 0x5000: 3, high: 4}
	img := image(words)
	sum := img.Sum()
	a, b := NewMemory(), NewMemory()
	a.Install(img)
	b.Install(img)
	if a.Footprint() != 3 || a.Owned() != 0 {
		t.Fatalf("installed: footprint %d, owned %d; want 3, 0", a.Footprint(), a.Owned())
	}
	for _, addr := range []uint64{0x2000, high} {
		a.Load(addr) // the load cache now holds the shared page
		a.Store(addr, 99)
		if a.Load(addr) != 99 {
			t.Fatalf("%#x: load after store = %d, want 99", addr, a.Load(addr))
		}
	}
	a.Store(0x2008, 98) // the page is owned now: no second copy
	a.Store(0x9000, 7)  // a page outside the image
	if a.Owned() != 3 || a.Footprint() != 4 {
		t.Fatalf("after stores: owned %d, footprint %d; want 3, 4", a.Owned(), a.Footprint())
	}
	if a.Load(0x5000) != 3 {
		t.Fatal("a store lost a word of the copied page's neighbour")
	}
	for addr, v := range words {
		if img.Word(addr) != v || b.Load(addr) != v {
			t.Fatalf("%#x: image %d, other memory %d; want %d", addr, img.Word(addr), b.Load(addr), v)
		}
	}
	if img.Sum() != sum || b.Owned() != 0 || b.Load(0x9000) != 0 {
		t.Fatal("a store reached the image or the other memory")
	}
	a.Reset()
	a.Install(img)
	if a.Checksum() != b.Checksum() || a.Owned() != 0 || a.Load(0x9000) != 0 || a.Load(0x2000) != 1 {
		t.Fatal("Reset+Install did not restore the image's contents")
	}
	// The frames stores take are reused, not reallocated, outlier pages'
	// included.
	if raceEnabled {
		return
	}
	if n := testing.AllocsPerRun(10, func() {
		a.Store(0x2000, 5)
		a.Store(high, 6)
		a.Store(0x9000, 7)
		a.Reset()
		a.Install(img)
	}); n != 0 {
		t.Fatalf("store, Reset and Install allocate %v times", n)
	}
}

// TestQuickPfWindow: property — the ring-buffer prefetch window with its
// open-addressed line set behaves exactly like the reference model it
// replaced (a map plus a re-sliced FIFO that keeps demand-consumed lines in
// insertion order and deletes evicted lines from the map unconditionally).
func TestQuickPfWindow(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := new(pfWindow)
		refSet := map[uint64]bool{}
		var refOrder []uint64
		for i := 0; i < 20000; i++ {
			line := uint64(r.Intn(600))
			switch r.Intn(3) {
			case 0: // notePrefetch
				if w.contains(line) != refSet[line] {
					return false
				}
				if !refSet[line] {
					w.push(line)
					if len(refOrder) >= pfWindowSize {
						old := refOrder[0]
						refOrder = refOrder[1:]
						delete(refSet, old)
					}
					refSet[line] = true
					refOrder = append(refOrder, line)
				}
			case 1: // noteDemand
				got := w.contains(line)
				if got != refSet[line] {
					return false
				}
				if got {
					w.consume(line)
					delete(refSet, line)
				}
			default:
				if w.contains(line) != refSet[line] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheHitMiss(t *testing.T) {
	c := NewCache(1024, 2, 64) // 16 lines, 8 sets, 2 ways
	if c.Lookup(0) {
		t.Fatal("hit in empty cache")
	}
	c.Insert(0)
	if !c.Lookup(0) || !c.Lookup(63) {
		t.Fatal("line not resident after insert")
	}
	if c.Lookup(64) {
		t.Fatal("adjacent line falsely hit")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1024, 2, 64) // 8 sets, 2 ways; lines mapping to set 0: 0, 8*64, 16*64...
	setStride := uint64(8 * 64)
	c.Insert(0)
	c.Insert(setStride)
	c.Lookup(0) // refresh line 0; line setStride is now LRU
	c.Insert(2 * setStride)
	if !c.Lookup(0) {
		t.Fatal("MRU line evicted")
	}
	if c.Lookup(setStride) {
		t.Fatal("LRU line survived eviction")
	}
	if !c.Lookup(2 * setStride) {
		t.Fatal("inserted line missing")
	}
}

// TestQuickCacheAssociativity: property — within one set, the W most
// recently touched distinct lines always hit.
func TestQuickCacheAssociativity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ways := 1 + r.Intn(4)
		sets := 8
		c := NewCache(sets*ways*64, ways, 64)
		// Touch random lines of set 0 and track recency.
		var recent []uint64
		touch := func(line uint64) {
			for i, l := range recent {
				if l == line {
					recent = append(recent[:i], recent[i+1:]...)
					break
				}
			}
			recent = append(recent, line)
		}
		for i := 0; i < 200; i++ {
			line := uint64(r.Intn(6)) * uint64(sets) * 64
			if !c.Lookup(line) {
				c.Insert(line)
			}
			touch(line)
			// The min(ways, len) most recent lines must be resident.
			k := ways
			if len(recent) < k {
				k = len(recent)
			}
			for _, l := range recent[len(recent)-k:] {
				if !c.Lookup(l) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchyLevels(t *testing.T) {
	h := NewHierarchy(Default())
	now := int64(0)
	// Cold access -> memory.
	a := h.Access(1, 0x100000, now)
	if a.Level != Mem || a.Partial {
		t.Fatalf("cold access = %+v", a)
	}
	if a.Latency < h.Cfg.MemLat {
		t.Fatalf("memory latency = %d", a.Latency)
	}
	// Same line immediately: partial hit on the in-flight fill.
	b := h.Access(1, 0x100008, now+1)
	if !b.Partial || b.Level != Mem {
		t.Fatalf("expected partial hit, got %+v", b)
	}
	if b.Latency >= a.Latency {
		t.Fatalf("partial hit latency %d should be below full miss %d", b.Latency, a.Latency)
	}
	// After the fill completes: L1 hit.
	c := h.Access(1, 0x100000, now+1000)
	if c.Level != L1 || c.Latency != h.Cfg.L1Lat {
		t.Fatalf("post-fill access = %+v", c)
	}
	s := h.ByLoad()[1]
	if s.Accesses != 3 || s.Hits[Mem][0] != 1 || s.Hits[Mem][1] != 1 || s.Hits[L1][0] != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MissCycles == 0 {
		t.Fatal("miss cycles not accumulated")
	}
}

func TestHierarchyL1EvictionFallsToL2(t *testing.T) {
	cfg := Default()
	h := NewHierarchy(cfg)
	now := int64(0)
	// Fill well beyond L1 (16KB = 256 lines) but within L2.
	lines := int64(2 * cfg.L1Size / cfg.LineBytes)
	for i := int64(0); i < lines; i++ {
		h.Access(1, uint64(i*64), now)
		now += 300 // let fills complete
	}
	// Re-access the first line: should be out of L1 but in L2.
	a := h.Access(2, 0, now+1000)
	if a.Level != L2 {
		t.Fatalf("re-access level = %v, want L2", a.Level)
	}
}

func TestPerfectModes(t *testing.T) {
	cfg := Default()
	cfg.PerfectMemory = true
	h := NewHierarchy(cfg)
	a := h.Access(1, 0xdeadbeef, 0)
	if a.Level != L1 || a.Latency != cfg.L1Lat {
		t.Fatalf("perfect memory access = %+v", a)
	}

	cfg = Default()
	cfg.PerfectDelinquent = true
	cfg.DelinquentIDs = NewIDSet(7)
	h = NewHierarchy(cfg)
	if a := h.Access(7, 0x100000, 0); a.Level != L1 {
		t.Fatalf("delinquent-perfect access = %+v", a)
	}
	if a := h.Access(8, 0x200000, 0); a.Level != Mem {
		t.Fatalf("ordinary access = %+v", a)
	}
}

func TestFillBufferBackPressure(t *testing.T) {
	cfg := Default()
	cfg.FillBufferEntries = 2
	h := NewHierarchy(cfg)
	a1 := h.Access(1, 0x000000, 0)
	a2 := h.Access(1, 0x100000, 0)
	// Third distinct line with a full fill buffer waits for a completion.
	a3 := h.Access(1, 0x200000, 0)
	if a3.Latency <= a1.Latency || a3.Latency <= a2.Latency {
		t.Fatalf("no back pressure: lat3=%d lat1=%d", a3.Latency, a1.Latency)
	}
}

func TestL1MissRate(t *testing.T) {
	s := &LoadStat{Accesses: 10}
	s.Hits[L1][0] = 4
	if got := s.L1MissRate(); got != 0.6 {
		t.Fatalf("miss rate = %v", got)
	}
	if (&LoadStat{}).L1MissRate() != 0 {
		t.Fatal("zero-access miss rate should be 0")
	}
}

func TestHierarchyReset(t *testing.T) {
	h := NewHierarchy(Default())
	h.Access(1, 0, 0)
	h.Reset()
	if len(h.ByLoad()) != 0 || h.Totals.Accesses != 0 {
		t.Fatal("Reset left stats")
	}
	if a := h.Access(1, 0, 1000); a.Level != Mem {
		t.Fatalf("cache not cleared: %+v", a)
	}
}

func TestTLBHitMiss(t *testing.T) {
	tlb := NewTLB(8, 2, 4096)
	if !tlb.Translate(0x1000) {
		t.Fatal("cold access should miss")
	}
	if tlb.Translate(0x1800) {
		t.Fatal("same-page access should hit")
	}
	if !tlb.Translate(0x5000) {
		t.Fatal("new page should miss")
	}
	tlb.Reset()
	if !tlb.Translate(0x1000) {
		t.Fatal("Reset did not clear entries")
	}
}

func TestTLBEvictionLRU(t *testing.T) {
	tlb := NewTLB(4, 2, 4096) // 2 sets x 2 ways
	// Three pages mapping to the same set (stride = sets * pagesize).
	p0, p1, p2 := uint64(0), uint64(2*4096), uint64(4*4096)
	tlb.Translate(p0)
	tlb.Translate(p1)
	tlb.Translate(p0) // refresh p0; p1 becomes LRU
	tlb.Translate(p2) // evicts p1
	if tlb.Translate(p0) {
		t.Fatal("MRU page evicted")
	}
	if !tlb.Translate(p1) {
		t.Fatal("LRU page survived")
	}
}

// TestTLBDirectMapped: with one way, every same-set page replaces the
// previous one regardless of recency.
func TestTLBDirectMapped(t *testing.T) {
	tlb := NewTLB(4, 1, 4096) // 4 sets x 1 way
	p0, p1 := uint64(0), uint64(4*4096)
	tlb.Translate(p0)
	tlb.Translate(p0) // refresh — irrelevant with one way
	if tlb.Translate(p0) {
		t.Fatal("resident page missed")
	}
	tlb.Translate(p1) // same set: must displace p0
	if !tlb.Translate(p0) {
		t.Fatal("direct-mapped conflict did not evict")
	}
}

// TestTLBEmptyWayPreferred: while a set still has invalid ways, fills must
// use them instead of evicting a live translation.
func TestTLBEmptyWayPreferred(t *testing.T) {
	tlb := NewTLB(8, 4, 4096)  // 2 sets x 4 ways
	stride := uint64(2 * 4096) // same-set pages
	for i := uint64(0); i < 4; i++ {
		tlb.Translate(i * stride)
		// Every earlier page must still be resident: only empty ways filled.
		for j := uint64(0); j <= i; j++ {
			if tlb.Translate(j * stride) {
				t.Fatalf("page %d evicted while set had empty ways", j)
			}
		}
	}
	// Set now full: a fifth page evicts exactly the LRU (page 0, the oldest
	// untouched — the verification loop above refreshed all of them, page 0
	// least recently on the final pass... the last inner loop touched 0..3 in
	// order, so page 0 is LRU).
	tlb.Translate(4 * stride)
	if !tlb.Translate(0) {
		t.Fatal("LRU page survived full-set eviction")
	}
	if tlb.Translate(3 * stride) {
		t.Fatal("MRU page evicted")
	}
}

// TestTLBFullyAssociative: ways == entries degenerates to one set holding
// everything; capacity, not conflicts, causes eviction.
func TestTLBFullyAssociative(t *testing.T) {
	tlb := NewTLB(4, 4, 4096)
	for i := uint64(0); i < 4; i++ {
		tlb.Translate(i * 4096)
	}
	for i := uint64(0); i < 4; i++ {
		if tlb.Translate(i * 4096) {
			t.Fatalf("page %d missing from fully-associative TLB", i)
		}
	}
	tlb.Translate(4 * 4096) // evicts page 0 (LRU after the re-touch loop)
	if !tlb.Translate(0) {
		t.Fatal("LRU page survived")
	}
}

func TestHierarchyChargesTLBPenalty(t *testing.T) {
	cfg := Default()
	cfg.TLBEntries = 4
	cfg.TLBWays = 2
	cfg.TLBPageBytes = 4096
	h := NewHierarchy(cfg)
	a := h.Access(1, 0x100000, 0)
	if a.Latency < cfg.MemLat+cfg.TLBPenalty {
		t.Fatalf("first touch latency %d lacks TLB penalty", a.Latency)
	}
	if h.Totals.TLBMisses != 1 {
		t.Fatalf("TLB misses = %d", h.Totals.TLBMisses)
	}
	// Same page after the fill completes: L1 hit, no TLB penalty.
	b := h.Access(1, 0x100008, 10_000)
	if b.Latency != cfg.L1Lat {
		t.Fatalf("warm same-page access latency %d", b.Latency)
	}
}

func TestHierarchyTLBDisabled(t *testing.T) {
	cfg := Default()
	cfg.TLBEntries = 0
	h := NewHierarchy(cfg)
	a := h.Access(1, 0x100000, 0)
	if a.Latency != cfg.MemLat+cfg.L1Lat {
		t.Fatalf("latency with TLB disabled = %d", a.Latency)
	}
}

func TestPrefetchAccuracyTracking(t *testing.T) {
	h := NewHierarchy(Default())
	// Two prefetches; only one line is later demanded.
	h.Prefetch(1, 0x100000, 0)
	h.Prefetch(1, 0x200000, 0)
	if h.PrefetchIssued != 2 {
		t.Fatalf("issued = %d", h.PrefetchIssued)
	}
	h.Access(2, 0x100008, 500)
	if h.PrefetchUseful != 1 {
		t.Fatalf("useful = %d", h.PrefetchUseful)
	}
	if got := h.PrefetchAccuracy(); got != 0.5 {
		t.Fatalf("accuracy = %v", got)
	}
	// Duplicate prefetch to an already-tracked line doesn't double count.
	h.Prefetch(1, 0x300000, 1000)
	h.Prefetch(1, 0x300008, 1000)
	if h.PrefetchIssued != 3 {
		t.Fatalf("issued after dup = %d", h.PrefetchIssued)
	}
	if (&Hierarchy{}).PrefetchAccuracy() != 1 {
		t.Fatal("no-prefetch accuracy should be 1")
	}
}
