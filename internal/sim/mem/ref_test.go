package mem

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// The reference models below are the cache model as it stood before its
// structures were packed and masked: a cache and a TLB with parallel tag and
// LRU arrays and no MRU shortcut, and a fill buffer whose slots carry a
// valid flag and are found by scanning every slot. TestQuickCacheModel
// holds the production Cache, TLB and Hierarchy to them access by access.

type refCache struct {
	ways     int
	sets     int
	lineBits uint
	tags     []uint64
	lru      []int64
	clock    int64
}

func newRefCache(sizeBytes, ways, lineBytes int) *refCache {
	sets := sizeBytes / lineBytes / ways
	return &refCache{
		ways:     ways,
		sets:     sets,
		lineBits: uint(lineBits(lineBytes)),
		tags:     make([]uint64, sets*ways),
		lru:      make([]int64, sets*ways),
	}
}

func (c *refCache) lookup(addr uint64) bool {
	ln := addr>>c.lineBits + 1
	base := (int(ln) & (c.sets - 1)) * c.ways
	tags := c.tags[base : base+c.ways]
	for w := range tags {
		if tags[w] == ln {
			c.clock++
			c.lru[base+w] = c.clock
			return true
		}
	}
	return false
}

func (c *refCache) insert(addr uint64) {
	ln := addr>>c.lineBits + 1
	base := (int(ln) & (c.sets - 1)) * c.ways
	tags := c.tags[base : base+c.ways]
	lru := c.lru[base : base+c.ways]
	victim := 0
	c.clock++
	for w := range tags {
		if tags[w] == ln {
			lru[w] = c.clock
			return
		}
		if tags[w] == 0 {
			victim = w
			break
		}
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	tags[victim] = ln
	lru[victim] = c.clock
}

type refTLB struct {
	ways     int
	sets     int
	pageBits uint
	tags     []uint64
	lru      []int64
	clock    int64
}

func newRefTLB(entries, ways, pageBytes int) *refTLB {
	return &refTLB{
		ways:     ways,
		sets:     entries / ways,
		pageBits: uint(lineBits(pageBytes)),
		tags:     make([]uint64, entries),
		lru:      make([]int64, entries),
	}
}

func (t *refTLB) translate(addr uint64) bool {
	page := addr>>t.pageBits + 1
	base := (int(page) & (t.sets - 1)) * t.ways
	victim := base
	t.clock++
	for w := 0; w < t.ways; w++ {
		i := base + w
		if t.tags[i] == page {
			t.lru[i] = t.clock
			return false
		}
		if t.tags[i] == 0 {
			victim = i
		} else if t.tags[victim] != 0 && t.lru[i] < t.lru[victim] {
			victim = i
		}
	}
	t.tags[victim] = page
	t.lru[victim] = t.clock
	return true
}

type refFill struct {
	line    uint64
	readyAt int64
	level   Level
	valid   bool
}

// refHierarchy is the scanning hierarchy: the same timing rules as
// Hierarchy, with every fill-buffer search a walk over all slots and the
// statistics kept in a plain map.
type refHierarchy struct {
	cfg        Config
	lineShift  uint
	l1, l2, l3 *refCache
	tlb        *refTLB
	fb         []refFill

	loads    map[int]*LoadStat
	totals   LoadStat
	dropped  uint64
	issued   uint64
	useful   uint64
	prefetch pfWindow
}

func newRefHierarchy(cfg Config) *refHierarchy {
	h := &refHierarchy{
		cfg:       cfg,
		lineShift: uint(lineBits(cfg.LineBytes)),
		l1:        newRefCache(cfg.L1Size, cfg.L1Ways, cfg.LineBytes),
		l2:        newRefCache(cfg.L2Size, cfg.L2Ways, cfg.LineBytes),
		l3:        newRefCache(cfg.L3Size, cfg.L3Ways, cfg.LineBytes),
		fb:        make([]refFill, cfg.FillBufferEntries),
		loads:     map[int]*LoadStat{},
	}
	if cfg.TLBEntries > 0 {
		h.tlb = newRefTLB(cfg.TLBEntries, cfg.TLBWays, cfg.TLBPageBytes)
	}
	return h
}

func (h *refHierarchy) live() int {
	n := 0
	for _, e := range h.fb {
		if e.valid {
			n++
		}
	}
	return n
}

func (h *refHierarchy) earliest() int64 {
	ready := fbNever
	for _, e := range h.fb {
		if e.valid && e.readyAt < ready {
			ready = e.readyAt
		}
	}
	return ready
}

func (h *refHierarchy) drain(now int64) {
	for i := range h.fb {
		e := &h.fb[i]
		if e.valid && e.readyAt <= now {
			addr := e.line << h.lineShift
			h.l1.insert(addr)
			h.l2.insert(addr)
			h.l3.insert(addr)
			e.valid = false
		}
	}
}

func (h *refHierarchy) earliestPending(now int64) (int64, bool) {
	earliest, any := int64(0), false
	for _, e := range h.fb {
		if e.valid && e.readyAt > now && (!any || e.readyAt < earliest) {
			earliest, any = e.readyAt, true
		}
	}
	return earliest, any
}

func (h *refHierarchy) access(addr uint64, now int64) Access {
	line := addr >> h.lineShift
	for _, e := range h.fb {
		if e.valid && e.line == line {
			return Access{Level: e.level, Partial: true, Latency: max(e.readyAt-now, 1) + h.cfg.L1Lat}
		}
	}
	if h.l1.lookup(addr) {
		return Access{Level: L1, Latency: h.cfg.L1Lat}
	}
	var lvl Level
	var lat int64
	switch {
	case h.l2.lookup(addr):
		lvl, lat = L2, h.cfg.L2Lat
	case h.l3.lookup(addr):
		lvl, lat = L3, h.cfg.L3Lat
		h.l2.insert(addr)
	default:
		lvl, lat = Mem, h.cfg.MemLat
	}
	extra := int64(0)
	if h.live() == len(h.fb) {
		first := h.earliest()
		extra = max(first-now, 0)
		h.drain(first)
	}
	slot := 0
	for i := range h.fb {
		if !h.fb[i].valid {
			slot = i
			break
		}
	}
	h.fb[slot] = refFill{line: line, readyAt: now + extra + lat, level: lvl, valid: true}
	return Access{Level: lvl, Latency: extra + lat + h.cfg.L1Lat}
}

func (h *refHierarchy) demand(id int, addr uint64, now int64) Access {
	h.drain(now)
	if line := addr >> h.lineShift; h.prefetch.contains(line) {
		h.prefetch.consume(line)
		h.useful++
	}
	res := h.access(addr, now)
	if h.tlb != nil && h.tlb.translate(addr) {
		res.Latency += h.cfg.TLBPenalty
		h.totals.TLBMisses++
	}
	s := h.loads[id]
	if s == nil {
		s = &LoadStat{ID: id}
		h.loads[id] = s
	}
	p := 0
	if res.Partial {
		p = 1
	}
	for _, st := range []*LoadStat{s, &h.totals} {
		st.Accesses++
		st.Hits[res.Level][p]++
		if extra := res.Latency - h.cfg.L1Lat; extra > 0 {
			st.MissCycles += uint64(extra)
		}
	}
	return res
}

func (h *refHierarchy) prefetchLine(addr uint64, now int64) Access {
	h.drain(now)
	line := addr >> h.lineShift
	for _, e := range h.fb {
		if e.valid && e.line == line {
			return Access{Level: e.level, Partial: true, Latency: 1}
		}
	}
	if h.l1.lookup(addr) {
		return Access{Level: L1, Latency: h.cfg.L1Lat}
	}
	if h.live() == len(h.fb) {
		h.dropped++
		return Access{Level: L1, Latency: 1}
	}
	if !h.prefetch.contains(line) {
		h.prefetch.push(line)
		h.issued++
	}
	return h.access(addr, now)
}

// sameCache reports whether a production cache holds exactly the reference
// cache's tags, LRU stamps and clock.
func sameCache(c *Cache, r *refCache) bool {
	if c.clock != r.clock || len(c.w) != len(r.tags) {
		return false
	}
	for i, w := range c.w {
		if w.tag != r.tags[i] || w.lru != r.lru[i] {
			return false
		}
	}
	return true
}

// sameTLB is sameCache for the TLB.
func sameTLB(t *TLB, r *refTLB) bool {
	return sameCache(&Cache{w: t.w, clock: t.clock}, &refCache{tags: r.tags, lru: r.lru, clock: r.clock})
}

// TestQuickCacheModel: property — the hierarchy with packed cache ways, a
// masked fill buffer and an MRU-first TLB behaves exactly like the scanning
// reference model on random demand-load, store and prefetch streams. Every
// Access return value, EarliestPending answer and statistic must match, and
// after each operation so must every cache's tags, LRU stamps and clock.
// The geometry is small so that the streams produce partial hits, a full
// fill buffer (back pressure), dropped prefetches and TLB set conflicts;
// the test asserts that each of these actually occurred.
func TestQuickCacheModel(t *testing.T) {
	var partial, backPressure, drops, tlbMisses uint64
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Default()
		cfg.L1Size, cfg.L2Size, cfg.L3Size = 1<<10, 4<<10, 16<<10
		cfg.L1Ways, cfg.L2Ways, cfg.L3Ways = 1+r.Intn(4), 4, 1+r.Intn(12)
		cfg.FillBufferEntries = 1 + r.Intn(64)
		cfg.TLBEntries, cfg.TLBWays, cfg.TLBPageBytes = 16, 1<<r.Intn(3), 4096
		h, ref := NewHierarchy(cfg), newRefHierarchy(cfg)
		h.PresizeLoads(4)
		var now int64
		for i := 0; i < 4000; i++ {
			now += int64(r.Intn(40))
			// Addresses from a 256 KB region: line reuse, set conflicts in
			// every cache and the TLB, and lines still in flight.
			addr := uint64(r.Intn(1 << 18))
			id := r.Intn(8)
			var got, want Access
			switch op := r.Intn(10); {
			case op < 5: // demand load
				full := h.fbMask == h.fbFull && h.inFlight(addr>>h.lineShift) == nil
				got, want = h.Access(id, addr, now), ref.demand(id, addr, now)
				if full && want.Latency > cfg.MemLat+cfg.L1Lat+cfg.TLBPenalty {
					backPressure++
				}
			case op < 7: // store: timed and counted like a load
				got, want = h.Access(id, addr, now), ref.demand(id, addr, now)
			default:
				got, want = h.Prefetch(id, addr, now), ref.prefetchLine(addr, now)
			}
			if got != want {
				t.Logf("seed %d op %d: Access %+v, reference %+v", seed, i, got, want)
				return false
			}
			if got.Partial {
				partial++
			}
			e, ok := h.EarliestPending(now)
			re, rok := ref.earliestPending(now)
			if e != re || ok != rok {
				t.Logf("seed %d op %d: EarliestPending (%d,%v), reference (%d,%v)", seed, i, e, ok, re, rok)
				return false
			}
			if !sameCache(h.l1, ref.l1) || !sameCache(h.l2, ref.l2) || !sameCache(h.l3, ref.l3) {
				t.Logf("seed %d op %d: cache state diverged", seed, i)
				return false
			}
			if !sameTLB(h.tlb, ref.tlb) {
				t.Logf("seed %d op %d: TLB state diverged", seed, i)
				return false
			}
		}
		drops += ref.dropped
		tlbMisses += ref.totals.TLBMisses
		if h.Totals != ref.totals || h.DroppedPrefetches != ref.dropped ||
			h.PrefetchIssued != ref.issued || h.PrefetchUseful != ref.useful {
			t.Logf("seed %d: totals %+v dropped %d issued %d useful %d; reference %+v %d %d %d", seed,
				h.Totals, h.DroppedPrefetches, h.PrefetchIssued, h.PrefetchUseful,
				ref.totals, ref.dropped, ref.issued, ref.useful)
			return false
		}
		if !reflect.DeepEqual(h.ByLoad(), ref.loads) {
			t.Logf("seed %d: per-load stats diverged", seed)
			return false
		}
		// A detached copy holds the same statistics and keeps them when the
		// hierarchy is reset for reuse.
		d := h.DetachStats()
		h.Reset()
		if d.Totals != ref.totals || d.PrefetchUseful != ref.useful || !reflect.DeepEqual(d.ByLoad(), ref.loads) {
			t.Logf("seed %d: detached stats diverged", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
	if partial == 0 || backPressure == 0 || drops == 0 || tlbMisses == 0 {
		t.Fatalf("streams missed a case: partial hits %d, back-pressured demands %d, dropped prefetches %d, TLB misses %d",
			partial, backPressure, drops, tlbMisses)
	}
	t.Logf("partial hits %d, back-pressured demands %d, dropped prefetches %d, TLB misses %d",
		partial, backPressure, drops, tlbMisses)
}
