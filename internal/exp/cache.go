package exp

import (
	"context"
	"slices"
	"sync/atomic"

	"ssp/internal/flight"
	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
)

// The suite's cells stay resident until its byte budget says otherwise.
// Every completed cell is charged an approximate footprint when it
// completes, and the suite keeps one CLOCK queue over the charged cells of
// all its stages. Once the resident total exceeds Suite.Budget, the hand
// moves over the queue: it evicts a cell that has no chances left and that
// no running computation pins, and takes one chance from any other. A cell
// earns a chance each time a later request uses it, and a sim cell starts
// with more the longer its simulation ran per byte it holds, so a small
// Result that cost a long simulation outlives bulky cells that are cheap to
// rebuild. A cell still in flight is not in the queue, so coalescing never
// changes. An evicted cell leaves its map only; callers that already hold
// it keep its value, and the next request for its key computes it again.

// slot is the cache state of one cell, guarded by Suite.mu: the bytes it was
// charged when it completed (0 while in flight), the passes of the CLOCK
// hand it survives unused, and how many running computations pin it.
type slot struct {
	size    int64
	chances uint8
	pins    int32
}

// resident is a charged cell as the CLOCK queue sees it.
type resident interface {
	state() *slot
	evict()
}

// cell is one singleflight cell of a stage.
type cell[K comparable, V any] struct {
	flight.Cell[V]
	slot
	st  *stage[K, V]
	key K
	// cycles is the live cycle count a served computation publishes
	// through its clock observer (sim.ProgressHooks), and its final count
	// once the run ends, for coalesced requests to watch; only run cells
	// use it.
	cycles atomic.Int64
}

func (c *cell[K, V]) state() *slot { return &c.slot }

// evict removes c from its stage; the caller holds Suite.mu.
func (c *cell[K, V]) evict() {
	delete(c.st.cells, c.key)
	c.st.bytes -= c.size
	c.st.evictions++
}

// stage is one cell map of the cache with its accounting, guarded by
// Suite.mu.
type stage[K comparable, V any] struct {
	name      string
	cells     map[K]*cell[K, V]
	bytes     int64
	evictions int64
	// chances, when set, is how many passes of the hand a cell holding v,
	// charged n bytes, survives unused from the start.
	chances func(v V, n int64) uint8
}

// stats reports the stage's accounting; the caller holds Suite.mu.
func (st *stage[K, V]) stats() (string, StageStats) {
	return st.name, StageStats{Entries: len(st.cells), Bytes: st.bytes, Evictions: st.evictions}
}

// newStage registers a stage named name with s.
func newStage[K comparable, V any](s *Suite, name string) *stage[K, V] {
	st := &stage[K, V]{name: name, cells: make(map[K]*cell[K, V])}
	s.mu.Lock()
	s.stages = append(s.stages, st)
	s.mu.Unlock()
	return st
}

// lease is the set of cells one computation pins: every cell it resolves,
// directly or by computing an input, stays resident until the computation
// releases the lease.
type lease []*slot

// holds reports whether l already pins sl.
func (l *lease) holds(sl *slot) bool {
	return l != nil && slices.Contains(*l, sl)
}

// lookup returns st's cell for k, creating it on first use. A request that
// finds the cell completed gives it a chance if it has none left: the one
// store a cache hit adds under the suite's lock. Lookups by the computation
// that completed the cell do not count as uses. With l non-nil the cell is
// pinned until l is released; a cell l already pins counts once.
func lookup[K comparable, V any](s *Suite, st *stage[K, V], k K, l *lease) *cell[K, V] {
	s.mu.Lock()
	defer s.mu.Unlock()
	c, ok := st.cells[k]
	if !ok {
		c = &cell[K, V]{st: st, key: k}
		st.cells[k] = c
	}
	if l.holds(&c.slot) {
		return c
	}
	if c.size > 0 && c.chances == 0 { // charged, so completed
		c.chances = 1
	}
	if l != nil {
		c.pins++
		*l = append(*l, &c.slot)
	}
	return c
}

// do resolves c with fn and reports whether this caller computed it. The
// caller whose computation completes the cell charges it: size of the
// value, or errBytes for a cached error.
func do[K comparable, V any](ctx context.Context, s *Suite, c *cell[K, V], size func(V) int64, fn func(context.Context) (V, error)) (V, bool, error) {
	ran := false
	v, err := c.Do(ctx, func(ctx context.Context) (V, error) {
		ran = true
		return fn(ctx)
	})
	if ran && flight.Cacheable(err) {
		n, chances := int64(errBytes), uint8(0)
		if err == nil {
			n = size(v)
			if c.st.chances != nil {
				chances = c.st.chances(v, n)
			}
		}
		s.mu.Lock()
		c.size, c.chances = n, chances
		c.st.bytes += n
		if s.Budget > 0 {
			s.used += n
			s.clock = append(s.clock, c)
			s.evict()
		}
		s.mu.Unlock()
	}
	return v, ran, err
}

// release unpins l's cells and evicts what no longer fits.
func (s *Suite) release(l *lease) {
	if len(*l) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sl := range *l {
		sl.pins--
	}
	*l = nil
	s.evict()
}

// evict runs the CLOCK hand until the resident total fits the budget: a
// pinned cell stays, a cell with chances left loses one and stays, and any
// other cell leaves its stage. The sweep stops after maxChances+1 passes
// over the queue, when pins alone hold the total over budget. The caller
// holds Suite.mu.
func (s *Suite) evict() {
	for n := (maxChances + 1) * (len(s.clock) - s.hand); s.used > s.Budget && n > 0; n-- {
		c := s.clock[s.hand]
		s.clock[s.hand] = nil
		s.hand++
		if st := c.state(); st.chances > 0 || st.pins > 0 {
			if st.pins == 0 {
				st.chances--
			}
			s.clock = append(s.clock, c)
			continue
		}
		s.used -= c.state().size
		c.evict()
	}
	if s.hand > len(s.clock)/2 {
		n := copy(s.clock, s.clock[s.hand:])
		clear(s.clock[n:])
		s.clock, s.hand = s.clock[:n], 0
	}
}

// StageStats is one cache stage's resident accounting.
type StageStats struct {
	// Entries counts the stage's cells, in flight or completed.
	Entries int `json:"entries"`
	// Bytes is the approximate footprint charged to its completed cells.
	Bytes int64 `json:"bytes"`
	// Evictions counts cells the budget evicted from it.
	Evictions int64 `json:"evictions"`
}

// CacheStats is a suite's cache accounting: its budget, its resident bytes
// and evictions in total, and each stage's.
type CacheStats struct {
	// BudgetBytes is Suite.Budget; 0 means unbounded.
	BudgetBytes int64                 `json:"budget_bytes"`
	Bytes       int64                 `json:"bytes"`
	Evictions   int64                 `json:"evictions"`
	Stages      map[string]StageStats `json:"stages"`
}

// Add sums o into c, stage by stage.
func (c *CacheStats) Add(o CacheStats) {
	c.BudgetBytes += o.BudgetBytes
	c.Bytes += o.Bytes
	c.Evictions += o.Evictions
	if c.Stages == nil {
		c.Stages = make(map[string]StageStats)
	}
	for name, st := range o.Stages {
		t := c.Stages[name]
		t.Entries += st.Entries
		t.Bytes += st.Bytes
		t.Evictions += st.Evictions
		c.Stages[name] = t
	}
}

// CacheStats reports the suite's resident cells per stage: program, binary,
// run and sim, plus every Memo over the suite.
func (s *Suite) CacheStats() CacheStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := CacheStats{BudgetBytes: s.Budget, Stages: make(map[string]StageStats, len(s.stages))}
	for _, st := range s.stages {
		name, ss := st.stats()
		c.Stages[name] = ss
		c.Bytes += ss.Bytes
		c.Evictions += ss.Evictions
	}
	return c
}

// Memo is a keyed cache of values computed on top of a suite (the tuner's
// candidates, the serving layer's tune results). Its cells live under the
// suite's budget like the pipeline's own: charged size(v) on completion,
// evicted by recency, and never while in flight.
type Memo[V any] struct {
	s    *Suite
	st   *stage[string, V]
	size func(V) int64
}

// NewMemo returns an empty memo over s, reported in CacheStats as name.
func NewMemo[V any](s *Suite, name string, size func(V) int64) *Memo[V] {
	return &Memo[V]{s: s, st: newStage[string, V](s, name), size: size}
}

// Do returns key's value, computing it with fn on first use (concurrent
// callers coalesce, as in flight.Cell), and reports whether this call
// computed it.
func (m *Memo[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, bool, error) {
	return do(ctx, m.s, lookup(m.s, m.st, key, nil), m.size, fn)
}

// Approximate footprints, in bytes, from heap profiles of test-scale
// built-in and source jobs; TestBudgetBoundsRetainedHeap holds the estimate
// to the heap it stands for.
const (
	// cellBytes covers a cell, its map slot, its key and its queue slot.
	cellBytes = 384
	// errBytes is a cell holding a cached error.
	errBytes = cellBytes + 256
	// instrBytes is one IR instruction with its share of blocks, labels
	// and function records.
	instrBytes = 160
	// pageBytes is one data-image page: its words, its presence mask and
	// its page-table slot.
	pageBytes = 4096 + 80 + 8
	// pcBytes is one linked and predecoded PC: the linked instruction, its
	// per-PC tables, the decoded form and its compiled step and run.
	pcBytes = 320
	// loadBytes is one per-load statistic and its map entry.
	loadBytes = 160
	// sliceBytes is one p-slice's share of a tool report.
	sliceBytes = 1024
)

// programBytes charges a program cell with everything its binaries share:
// the original IR, its data image, the original's decode, and the profile.
func programBytes(p *program) int64 {
	n := cellBytes + irBytes(p.orig) + int64(p.orig.Data.Pages())*pageBytes + decodeBytes(p.dp)
	if pr := p.prof; pr != nil {
		n += int64(len(pr.InstrFreq)+len(pr.BlockFreq))*48 + int64(len(pr.Loads))*loadBytes
	}
	return n
}

// binaryBytes charges an adapted binary's cell with its own code: the
// adapted IR, its decode and the tool report. (The base treatment's binary
// is its program's image, charged to the program cell.)
func binaryBytes(b *binary) int64 {
	n := cellBytes + irBytes(b.prog) + decodeBytes(b.dp)
	if b.rep != nil {
		n += int64(b.rep.NumSlices()+1) * sliceBytes
	}
	return n
}

// runBytes charges a run cell only for itself: its Result is the sim
// cell's, its report the binary cell's.
func runBytes(run) int64 { return cellBytes }

// maxChances caps the passes of the hand a cell survives unused.
const maxChances = 3

// cyclesPerChance is the simulated work per charged byte that earns a sim
// cell one pass of the hand: a test-scale benchmark's Result holds about
// 4 KB for 0.07-1.3 M cycles (1-3 chances), a small source job's about
// 4 KB for 20-50 K cycles (none).
const cyclesPerChance = 16

// simChances is the sim stage's starting chances: its simulation's cycles
// per byte it holds, in units of cyclesPerChance.
func simChances(res *sim.Result, n int64) uint8 {
	return uint8(min(maxChances, res.Cycles/(n*cyclesPerChance)))
}

// resultBytes charges a sim cell with its Result.
func resultBytes(res *sim.Result) int64 {
	n := int64(cellBytes) + 2048 + 8*int64(len(res.SpecActiveHist))
	if res.Hier != nil {
		n += int64(len(res.Hier.ByLoad())) * loadBytes
	}
	return n
}

func irBytes(p *ir.Program) int64 { return int64(p.NumInstrs()) * instrBytes }

func decodeBytes(dp *decode.Program) int64 { return int64(len(dp.Code)) * pcBytes }
