package mem

import "math/bits"

// Level identifies where an access was satisfied.
type Level uint8

const (
	// L1 is a first-level hit.
	L1 Level = iota
	// L2 and L3 are hits in the shared second/third-level caches.
	L2
	L3
	// Mem is main memory.
	Mem
	// NumLevels counts the levels.
	NumLevels
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case L3:
		return "L3"
	case Mem:
		return "Mem"
	}
	return "?"
}

// Config parametrizes the hierarchy; Default matches Table 1.
type Config struct {
	LineBytes int

	L1Size, L1Ways int
	L2Size, L2Ways int
	L3Size, L3Ways int

	// Latencies in cycles to satisfy an access from each level.
	L1Lat, L2Lat, L3Lat, MemLat int64

	// FillBufferEntries bounds the number of lines in transit: 1..64, the
	// width of the hierarchy's fill-buffer valid mask (sim.Config.Validate
	// rejects anything else before a hierarchy is built).
	FillBufferEntries int

	// TLBEntries/TLBWays/TLBPageBytes size the data TLB; TLBPenalty is the
	// Table 1 "TLB Miss Penalty: 30 cycles". TLBEntries = 0 disables TLB
	// modelling.
	TLBEntries, TLBWays, TLBPageBytes int
	TLBPenalty                        int64

	// PerfectMemory makes every access an L1 hit (Figure 2, first bar).
	PerfectMemory bool
	// PerfectDelinquent makes accesses by the instruction IDs in
	// DelinquentIDs L1 hits (Figure 2, second bar).
	PerfectDelinquent bool
	DelinquentIDs     IDSet
}

// SameGeometry reports whether two configs describe structurally identical
// hardware (cache/TLB/fill-buffer shapes), so a hierarchy built for one can
// be Reset and reused for the other instead of reallocated.
func SameGeometry(a, b Config) bool {
	return a.LineBytes == b.LineBytes &&
		a.L1Size == b.L1Size && a.L1Ways == b.L1Ways &&
		a.L2Size == b.L2Size && a.L2Ways == b.L2Ways &&
		a.L3Size == b.L3Size && a.L3Ways == b.L3Ways &&
		a.FillBufferEntries == b.FillBufferEntries &&
		a.TLBEntries == b.TLBEntries && a.TLBWays == b.TLBWays &&
		a.TLBPageBytes == b.TLBPageBytes
}

// Default returns the Table 1 memory system: L1 16KB 4-way 2cyc, L2 256KB
// 4-way 14cyc, L3 3072KB 12-way 30cyc, 230-cycle memory, 64-byte lines,
// 16-entry fill buffer.
func Default() Config {
	return Config{
		LineBytes: 64,
		L1Size:    16 << 10, L1Ways: 4,
		L2Size: 256 << 10, L2Ways: 4,
		L3Size: 3072 << 10, L3Ways: 12,
		L1Lat: 2, L2Lat: 14, L3Lat: 30, MemLat: 230,
		FillBufferEntries: 16,
		TLBEntries:        128, TLBWays: 4, TLBPageBytes: 16 << 10,
		TLBPenalty: 30,
	}
}

// Access describes the outcome of one memory access.
type Access struct {
	// Level is where the line was found (for partial hits: the level the
	// in-flight fill is being serviced from).
	Level Level
	// Partial marks an access to a line already in transit to L1 due to a
	// prior access (Figure 9's "Partial" categories).
	Partial bool
	// Latency is the number of cycles until the value is available.
	Latency int64
}

// LoadStat accumulates per-static-load behaviour, keyed by instruction ID.
// It feeds both the cache profile that identifies delinquent loads (§2.2)
// and the Figure 9 breakdown.
type LoadStat struct {
	ID       int
	Accesses uint64
	// Hits[level][0] = full hits at level, Hits[level][1] = partial hits.
	Hits [NumLevels][2]uint64
	// MissCycles sums latency beyond an L1 hit — the profile metric that
	// ranks delinquent loads.
	MissCycles uint64
	// TLBMisses counts accesses that also missed the TLB (only maintained
	// on the Totals aggregate).
	TLBMisses uint64
}

// L1MissRate returns the fraction of accesses that missed L1.
func (s *LoadStat) L1MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	miss := s.Accesses - s.Hits[L1][0]
	return float64(miss) / float64(s.Accesses)
}

// fbEntry is a fill-buffer slot: a line in transit. Whether the slot is in
// use is its bit in Hierarchy.fbMask.
type fbEntry struct {
	line    uint64
	readyAt int64
	level   Level
}

// fbNever is the cached-earliest sentinel when no fill is in flight.
const fbNever = int64(1) << 62

// Hierarchy is the shared three-level cache hierarchy plus fill buffer. All
// hardware thread contexts access the same hierarchy (Table 1: L2 and L3 are
// shared; L1 is shared too in the modelled core since SMT contexts share the
// data cache), which is exactly what makes p-slice prefetching visible to
// the main thread.
//
// Per-load statistics live in a dense slice indexed by static instruction ID
// (the decode layer assigns small contiguous IDs); the exported map view is
// materialized on demand by ByLoad. The fill buffer keeps a valid mask and
// a cached earliest completion so the common no-fill-pending case costs two
// compares instead of a scan, and every search visits only the slots in use,
// in ascending slot order.
type Hierarchy struct {
	Cfg       Config
	lineShift uint
	l1        *Cache
	l2        *Cache
	l3        *Cache
	fb        []fbEntry
	fbMask    uint64 // bit i set = fb[i] holds a line in transit
	fbFull    uint64 // fbMask with every slot in use
	fbReady   int64  // min readyAt over valid entries; fbNever when none
	tlb       *TLB

	// loads holds per-instruction-ID stats densely; byLoad caches the map
	// view the exported accessors materialize.
	loads  []LoadStat
	byLoad map[int]*LoadStat

	// Totals aggregates all accesses.
	Totals LoadStat
	// DroppedPrefetches counts lfetch requests discarded because the fill
	// buffer was full — prefetches are non-binding and never exert back
	// pressure on demand misses.
	DroppedPrefetches uint64

	// Prefetch accuracy (§4.4: "The number of wrong addresses generated by
	// speculative slicing is small"): PrefetchIssued counts lfetches that
	// actually started a fill; PrefetchUseful counts those whose line was
	// later touched by a demand access before being forgotten. The
	// tracking window holds the most recent prefetched lines.
	PrefetchIssued uint64
	PrefetchUseful uint64
	pf             *pfWindow
}

// pfWindowSize bounds the prefetched-line tracking window.
const pfWindowSize = 4096

// notePrefetch records a newly prefetched line in the accuracy window.
func (h *Hierarchy) notePrefetch(line uint64) {
	if h.pf == nil {
		h.pf = new(pfWindow)
	}
	if h.pf.contains(line) {
		return
	}
	h.pf.push(line)
	h.PrefetchIssued++
}

// noteDemand credits a prefetch when a demand access touches its line.
func (h *Hierarchy) noteDemand(line uint64) {
	if h.pf != nil && h.pf.contains(line) {
		h.pf.consume(line)
		h.PrefetchUseful++
	}
}

// PrefetchAccuracy returns the fraction of issued prefetches whose lines
// were later demanded, or 1 when no prefetches were issued.
func (h *Hierarchy) PrefetchAccuracy() float64 {
	if h.PrefetchIssued == 0 {
		return 1
	}
	return float64(h.PrefetchUseful) / float64(h.PrefetchIssued)
}

// NewHierarchy builds the hierarchy for the given configuration.
func NewHierarchy(cfg Config) *Hierarchy {
	h := &Hierarchy{
		Cfg:     cfg,
		l1:      NewCache(cfg.L1Size, cfg.L1Ways, cfg.LineBytes),
		l2:      NewCache(cfg.L2Size, cfg.L2Ways, cfg.LineBytes),
		l3:      NewCache(cfg.L3Size, cfg.L3Ways, cfg.LineBytes),
		fb:      make([]fbEntry, cfg.FillBufferEntries),
		fbFull:  ^uint64(0) >> (64 - cfg.FillBufferEntries),
		fbReady: fbNever,
	}
	h.lineShift = uint(lineBits(cfg.LineBytes))
	if cfg.TLBEntries > 0 {
		h.tlb = NewTLB(cfg.TLBEntries, cfg.TLBWays, cfg.TLBPageBytes)
	}
	return h
}

// PresizeLoads grows the per-load stat table to cover IDs below n, so that
// the counting path never allocates. The machine presizes from the decoded
// program's maximum static ID.
func (h *Hierarchy) PresizeLoads(n int) {
	if n > len(h.loads) {
		grown := make([]LoadStat, n)
		copy(grown, h.loads)
		h.loads = grown
	}
}

func (h *Hierarchy) stat(id int) *LoadStat {
	if h.byLoad != nil {
		h.byLoad = nil // new counts invalidate the materialized view
	}
	if id >= len(h.loads) {
		n := id + 1
		if c := 2 * len(h.loads); n < c {
			n = c
		}
		grown := make([]LoadStat, n)
		copy(grown, h.loads)
		h.loads = grown
	}
	return &h.loads[id]
}

// ByLoad materializes the per-load statistics as a map from instruction ID
// to stats, containing exactly the IDs that were accessed at least once. The
// map is cached until further accesses are counted; entries are detached
// copies of the dense table.
func (h *Hierarchy) ByLoad() map[int]*LoadStat {
	if h.byLoad == nil {
		n := 0
		for i := range h.loads {
			if h.loads[i].Accesses != 0 {
				n++
			}
		}
		m := make(map[int]*LoadStat, n)
		for i := range h.loads {
			if h.loads[i].Accesses == 0 {
				continue
			}
			s := h.loads[i]
			s.ID = i
			m[i] = &s
		}
		h.byLoad = m
	}
	return h.byLoad
}

// DetachStats returns a self-contained statistics-only copy of the
// hierarchy: totals, prefetch counters, and the per-load statistics of the
// accessed IDs only, held once: the map view points into one compact slice
// and is the copy's whole per-load table. Results hold the detached copy so
// the machine (and its hierarchy) can be Reset and reused without
// corrupting previously returned Results.
func (h *Hierarchy) DetachStats() *Hierarchy {
	n := 0
	for i := range h.loads {
		if h.loads[i].Accesses != 0 {
			n++
		}
	}
	stats := make([]LoadStat, 0, n)
	byLoad := make(map[int]*LoadStat, n)
	for i := range h.loads {
		if h.loads[i].Accesses == 0 {
			continue
		}
		stats = append(stats, h.loads[i])
		s := &stats[len(stats)-1]
		s.ID = i
		byLoad[i] = s
	}
	return &Hierarchy{
		Cfg:               h.Cfg,
		Totals:            h.Totals,
		DroppedPrefetches: h.DroppedPrefetches,
		PrefetchIssued:    h.PrefetchIssued,
		PrefetchUseful:    h.PrefetchUseful,
		byLoad:            byLoad,
	}
}

// drain completes any fill-buffer entries that have arrived by now,
// installing their lines into the hierarchy (inclusive fill). When nothing
// has completed — the overwhelmingly common case — this is two compares.
func (h *Hierarchy) drain(now int64) {
	if h.fbMask == 0 || h.fbReady > now {
		return
	}
	ready := fbNever
	for live := h.fbMask; live != 0; live &= live - 1 {
		i := bits.TrailingZeros64(live)
		e := &h.fb[i]
		if e.readyAt <= now {
			addr := e.line << h.lineShift
			h.l1.Insert(addr)
			h.l2.Insert(addr)
			h.l3.Insert(addr)
			h.fbMask &^= 1 << i
		} else if e.readyAt < ready {
			ready = e.readyAt
		}
	}
	h.fbReady = ready
}

// EarliestPending returns the completion cycle of the earliest in-flight
// fill-buffer entry still pending after now, and whether one exists. The
// fast-forward timing core (internal/sim) treats that completion as an event
// a stall jump must not cross: a fill landing in the caches can turn the next
// access by any thread from a miss into a hit, so the machine's timing is
// only provably static up to this boundary.
func (h *Hierarchy) EarliestPending(now int64) (int64, bool) {
	if h.fbMask == 0 {
		return 0, false
	}
	if h.fbReady > now {
		return h.fbReady, true
	}
	// Some entries have completed but not yet drained; scan for the
	// earliest strictly beyond now.
	earliest, any := int64(0), false
	for live := h.fbMask; live != 0; live &= live - 1 {
		e := &h.fb[bits.TrailingZeros64(live)]
		if e.readyAt > now && (!any || e.readyAt < earliest) {
			earliest, any = e.readyAt, true
		}
	}
	return earliest, any
}

func lineBits(lineBytes int) int {
	b := 0
	for 1<<b < lineBytes {
		b++
	}
	return b
}

// Access performs a timed access at cycle now on behalf of static
// instruction id, and counts it in the statistics.
func (h *Hierarchy) Access(id int, addr uint64, now int64) Access {
	if h.Cfg.PerfectMemory || (h.Cfg.PerfectDelinquent && h.Cfg.DelinquentIDs.Has(id)) {
		s := h.stat(id)
		s.Accesses++
		s.Hits[L1][0]++
		h.Totals.Accesses++
		h.Totals.Hits[L1][0]++
		if !h.Cfg.PerfectMemory {
			// A perfect delinquent load's line is resident by assumption
			// ("delinquent loads always hit in the L1 cache", §2.2), so
			// it fills the hierarchy immediately — the idealization
			// removes the latency, not the warming effect on line-mates.
			h.l1.Insert(addr)
			h.l2.Insert(addr)
			h.l3.Insert(addr)
		}
		return Access{Level: L1, Latency: h.Cfg.L1Lat}
	}
	h.drain(now)
	h.noteDemand(addr >> h.lineShift)
	res := h.access(addr, now)
	if h.tlb != nil && h.tlb.Translate(addr) {
		res.Latency += h.Cfg.TLBPenalty
		h.Totals.TLBMisses++
	}
	s := h.stat(id)
	s.Accesses++
	h.Totals.Accesses++
	p := 0
	if res.Partial {
		p = 1
	}
	s.Hits[res.Level][p]++
	h.Totals.Hits[res.Level][p]++
	if extra := res.Latency - h.Cfg.L1Lat; extra > 0 {
		s.MissCycles += uint64(extra)
		h.Totals.MissCycles += uint64(extra)
	}
	return res
}

// inFlight returns the fill-buffer entry carrying line, or nil. A line is in
// transit at most once: both access paths search here before allocating.
func (h *Hierarchy) inFlight(line uint64) *fbEntry {
	for live := h.fbMask; live != 0; live &= live - 1 {
		if e := &h.fb[bits.TrailingZeros64(live)]; e.line == line {
			return e
		}
	}
	return nil
}

func (h *Hierarchy) access(addr uint64, now int64) Access {
	line := addr >> h.lineShift
	// Partial hit: the line is already in transit.
	if e := h.inFlight(line); e != nil {
		lat := e.readyAt - now
		if lat < 1 {
			lat = 1
		}
		return Access{Level: e.level, Partial: true, Latency: lat + h.Cfg.L1Lat}
	}
	if h.l1.Lookup(addr) {
		return Access{Level: L1, Latency: h.Cfg.L1Lat}
	}
	var lvl Level
	var lat int64
	switch {
	case h.l2.Lookup(addr):
		lvl, lat = L2, h.Cfg.L2Lat
	case h.l3.Lookup(addr):
		lvl, lat = L3, h.Cfg.L3Lat
		h.l2.Insert(addr)
	default:
		lvl, lat = Mem, h.Cfg.MemLat
	}
	// Allocate a fill-buffer entry for the in-flight line. If the buffer
	// is full of in-flight entries the request waits for the earliest
	// completion (back pressure).
	extra := int64(0)
	if h.fbMask == h.fbFull {
		// Full: wait for the earliest completion, which drain then frees.
		extra = h.fbReady - now
		if extra < 0 {
			extra = 0
		}
		h.drain(h.fbReady)
	}
	// The lowest free slot: drain always frees at least one of a full
	// buffer, since fbReady is a valid entry's completion.
	slot := bits.TrailingZeros64(^h.fbMask)
	readyAt := now + extra + lat
	h.fb[slot] = fbEntry{line: line, readyAt: readyAt, level: lvl}
	h.fbMask |= 1 << slot
	if readyAt < h.fbReady {
		h.fbReady = readyAt
	}
	return Access{Level: lvl, Latency: extra + lat + h.Cfg.L1Lat}
}

// Prefetch performs a non-binding lfetch: like Access, except that a miss
// needing a fill-buffer slot when none is free is silently dropped rather
// than waiting — speculative prefetching must not steal miss-level
// parallelism from the main thread's demand accesses (the L1-interference
// effect §4.4.1 discusses on the OOO model).
func (h *Hierarchy) Prefetch(id int, addr uint64, now int64) Access {
	if h.Cfg.PerfectMemory || (h.Cfg.PerfectDelinquent && h.Cfg.DelinquentIDs.Has(id)) {
		return Access{Level: L1, Latency: h.Cfg.L1Lat}
	}
	h.drain(now)
	line := addr >> h.lineShift
	if e := h.inFlight(line); e != nil {
		return Access{Level: e.level, Partial: true, Latency: 1}
	}
	if h.l1.Lookup(addr) {
		return Access{Level: L1, Latency: h.Cfg.L1Lat}
	}
	if h.fbMask == h.fbFull {
		h.DroppedPrefetches++
		return Access{Level: L1, Latency: 1}
	}
	h.notePrefetch(line)
	return h.access(addr, now)
}

// Reset clears caches, fill buffer, and statistics in place, keeping every
// allocation (dense stat table, prefetch window, cache arrays) for reuse.
func (h *Hierarchy) Reset() {
	h.lineShift = uint(lineBits(h.Cfg.LineBytes))
	h.l1.Reset()
	h.l2.Reset()
	h.l3.Reset()
	clear(h.fb)
	h.fbMask = 0
	h.fbReady = fbNever
	if h.tlb != nil {
		h.tlb.Reset()
	}
	for i := range h.loads {
		h.loads[i] = LoadStat{}
	}
	h.byLoad = nil
	h.Totals = LoadStat{}
	h.DroppedPrefetches = 0
	h.PrefetchIssued = 0
	h.PrefetchUseful = 0
	if h.pf != nil {
		h.pf.tail, h.pf.n = 0, 0
		h.pf.set.reset()
	}
}
