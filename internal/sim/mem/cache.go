package mem

// way is one cache or TLB entry: its biased tag (0 = invalid, tag 0 reserved
// via a +1 bias) and its LRU stamp. The pair is stored together so a set's
// scan reads one host cache line per way group instead of one from a tag
// array and another from a parallel LRU array.
type way struct {
	tag uint64
	lru int64
}

// Cache is one level of set-associative cache with LRU replacement. Only
// tags are tracked: data always comes from the flat Memory (timing and
// contents are decoupled, as in trace-driven simulators).
type Cache struct {
	ways     int
	sets     int
	lineBits uint
	w        []way // sets*ways entries, set-major
	clock    int64
}

// NewCache builds a cache of the given total size in bytes, associativity,
// and line size in bytes (must be powers of two).
func NewCache(sizeBytes, ways, lineBytes int) *Cache {
	lines := sizeBytes / lineBytes
	sets := lines / ways
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	return &Cache{
		ways:     ways,
		sets:     sets,
		lineBits: lb,
		w:        make([]way, sets*ways),
	}
}

// set returns the ways of the set holding biased line tag ln.
func (c *Cache) set(ln uint64) []way {
	base := (int(ln) & (c.sets - 1)) * c.ways
	return c.w[base : base+c.ways]
}

// Lookup probes the cache; on a hit the line's LRU stamp is refreshed.
func (c *Cache) Lookup(addr uint64) bool {
	ln := addr>>c.lineBits + 1
	set := c.set(ln)
	for i := range set {
		if set[i].tag == ln {
			c.clock++
			set[i].lru = c.clock
			return true
		}
	}
	return false
}

// Insert fills the line, evicting the LRU way if the set is full. Inserting
// a line already present just refreshes it.
func (c *Cache) Insert(addr uint64) {
	ln := addr>>c.lineBits + 1
	set := c.set(ln)
	victim := 0
	c.clock++
	for i := range set {
		w := &set[i]
		if w.tag == ln {
			w.lru = c.clock
			return
		}
		if w.tag == 0 {
			victim = i
			break
		}
		if w.lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = way{tag: ln, lru: c.clock}
}

// Reset invalidates the whole cache.
func (c *Cache) Reset() {
	clear(c.w)
	c.clock = 0
}
