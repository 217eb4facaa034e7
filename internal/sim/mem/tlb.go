package mem

// TLB is a set-associative translation lookaside buffer. Table 1 lists a
// 30-cycle TLB miss penalty; the hierarchy charges it on top of the cache
// access whenever a data access touches a page absent from the TLB. (The
// hardware page walker is not modelled beyond its latency.)
type TLB struct {
	ways     int
	sets     int
	pageBits uint
	w        []way // entries, set-major
	clock    int64
	// mru indexes the entry that hit or was filled last. Consecutive
	// accesses mostly touch the same page, so Translate tests it before
	// scanning the set; a page lives in at most one way, so a match there
	// is the hit the scan would find.
	mru int
}

// NewTLB builds a TLB with the given entry count, associativity, and page
// size in bytes (powers of two).
func NewTLB(entries, ways, pageBytes int) *TLB {
	pb := uint(0)
	for 1<<pb < pageBytes {
		pb++
	}
	return &TLB{
		ways:     ways,
		sets:     entries / ways,
		pageBits: pb,
		w:        make([]way, entries),
	}
}

// Translate probes the TLB for addr's page, filling on a miss, and reports
// whether the access missed.
func (t *TLB) Translate(addr uint64) (missed bool) {
	page := addr>>t.pageBits + 1
	t.clock++
	if e := &t.w[t.mru]; e.tag == page {
		e.lru = t.clock
		return false
	}
	base := (int(page) & (t.sets - 1)) * t.ways
	set := t.w[base : base+t.ways]
	victim := 0
	for i := range set {
		e := &set[i]
		if e.tag == page {
			e.lru = t.clock
			t.mru = base + i
			return false
		}
		// The last invalid way, else the first least recently used one.
		if e.tag == 0 {
			victim = i
		} else if set[victim].tag != 0 && e.lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = way{tag: page, lru: t.clock}
	t.mru = base + victim
	return true
}

// Reset invalidates all entries.
func (t *TLB) Reset() {
	clear(t.w)
	t.clock = 0
	t.mru = 0
}
