// Package cache models the set-associative caches of the simulated
// GPU: the 16KB 4-way L1D and the 768KB 8-way L2 of Table I, with LRU
// replacement, XOR-based set-index hashing, per-line warp-ID ownership
// tags (needed by the interference machinery) and the Victim Tag Array
// of CCWS/CIAO.
package cache

import (
	"fmt"
	"math/bits"

	"repro/internal/memory"
)

// WritePolicy selects the allocation/propagation behaviour on writes.
type WritePolicy uint8

// Write policies from Table I.
const (
	// WriteThroughNoAllocate: global writes at L1D go straight through
	// without allocating a line.
	WriteThroughNoAllocate WritePolicy = iota
	// WriteBackAllocate: L2 behaviour — allocate on write miss, write
	// dirty lines back on eviction.
	WriteBackAllocate
)

// Config shapes a cache.
type Config struct {
	// Name is used in diagnostics and stats.
	Name string
	// SizeBytes is the total data capacity.
	SizeBytes int
	// Ways is the associativity.
	Ways int
	// Write selects the write policy.
	Write WritePolicy
	// UseXORHash selects XOR set-index hashing (the paper's baseline
	// enhancement) instead of modulo indexing.
	UseXORHash bool
	// HitLatency is the access latency in cycles (Table I: 1 for L1D).
	HitLatency int
}

// Sets returns the number of sets implied by the config.
func (c Config) Sets() int {
	return c.SizeBytes / (memory.LineSize * c.Ways)
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry", c.Name)
	}
	sets := c.Sets()
	if sets == 0 || sets*c.Ways*memory.LineSize != c.SizeBytes {
		return fmt.Errorf("cache %q: size %dB not divisible into %d-way 128B sets", c.Name, c.SizeBytes, c.Ways)
	}
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: %d sets is not a power of two", c.Name, sets)
	}
	return nil
}

// Eviction records a replaced line: the victim's address and the warp
// that owned it, plus the warp whose fill evicted it. This is exactly
// the (address, evictor WID) pair CIAO feeds into the owner's VTA set.
type Eviction struct {
	Line     memory.Addr
	OwnerWID int
	Evictor  int
	Dirty    bool
}

// Stats aggregates cache activity.
type Stats struct {
	Accesses    uint64
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	WriteHits   uint64
	WriteMiss   uint64
	Fills       uint64
	Invalidates uint64
}

// HitRate returns Hits/Accesses (0 for no accesses).
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is a set-associative cache with LRU replacement.
// The zero value is not usable; construct with New.
//
// Every lookup is one fixed-length pass over its set, which is faster
// than early-exit scans whose exits the host cannot predict. Each way's
// tag is stored as line|1 in one dense array, 0 meaning invalid (line
// addresses have zero low bits). The LRU time, owner and dirty bit sit
// in arrays parallel to the tags, so a victim scan reads the set's
// tags and one run of LRU times (64 bytes each for an 8-way set), not
// whole per-way records. A tag match visits every way (at most one can
// match). A fill's victim is the first invalid way, else the first way
// with the least recent use.
type Cache struct {
	cfg     Config
	fold    uint     // first XOR-fold shift of the set index; 64 = none
	mask    uint64   // sets-1
	tags    []uint64 // line|1 per way, set by set; 0 = invalid
	lastUse []uint64 // cycle of each way's last touch, for LRU
	owner   []int32  // WID of the warp that filled each way
	dirty   []bool
	stats   Stats
}

// Set locates one line in a cache: its set, its tag and the way that
// holds it (-1 while absent). AccessSet returns it, and on a miss
// FillMiss and WriteHit reuse it, so a miss that allocates looks its
// set up once. A Set is valid until the cache next changes by any
// other call.
type Set struct {
	base, way int
	tag       uint64
}

// New builds a cache from cfg, panicking on invalid geometry (a
// programming error in experiment setup, not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.Sets()
	fold := uint(64)
	if cfg.UseXORHash && nsets > 1 {
		fold = uint(bits.TrailingZeros(uint(nsets)))
	}
	n := nsets * cfg.Ways
	return &Cache{
		cfg:     cfg,
		fold:    fold,
		mask:    uint64(nsets - 1),
		tags:    make([]uint64, n),
		lastUse: make([]uint64, n),
		owner:   make([]int32, n),
		dirty:   make([]bool, n),
	}
}

// setIndex maps an address to its set. Modulo indexing takes the low
// bits of the line number. XOR indexing, the baseline enhancement the
// paper adds to L1D and L2 ("we enhance the baseline L1D and L2 caches
// with a XOR-based set index hashing technique [26]", after Nugteren
// et al., HPCA 2014), XORs every index-width bit group of the line
// number together, which spreads power-of-two strides across sets.
// The fold doubles its shift each step, so it covers the 64-bit line
// number in a trip count fixed per cache.
func (c *Cache) setIndex(addr memory.Addr) int {
	line := addr.LineIndex()
	for s := c.fold; s < 64; s <<= 1 {
		line ^= line >> s
	}
	return int(line & c.mask)
}

// locate returns the index of addr's set's first way and its tag.
func (c *Cache) locate(addr memory.Addr) (base int, tag uint64) {
	return c.setIndex(addr) * c.cfg.Ways, uint64(addr.LineAddr()) | 1
}

// find returns the way of the set at base holding tag, or -1.
func (c *Cache) find(base int, tag uint64) int {
	way := -1
	for i, t := range c.tags[base : base+c.cfg.Ways] {
		if t == tag {
			way = base + i
		}
	}
	return way
}

// victim returns the way of the set at base a fill replaces.
func (c *Cache) victim(base int) int {
	tags, lru := c.tags[base:base+c.cfg.Ways], c.lastUse[base:base+c.cfg.Ways]
	way := -1
	for i := len(tags) - 1; i >= 0; i-- {
		if tags[i] == 0 {
			way = i
		}
	}
	if way < 0 {
		lu := lru[0]
		for _, t := range lru[1:] {
			lu = min(lu, t)
		}
		for i := len(lru) - 1; i >= 0; i-- {
			if lru[i] == lu {
				way = i
			}
		}
	}
	return base + way
}

// Probe checks for a hit without modifying replacement state.
func (c *Cache) Probe(addr memory.Addr) bool {
	return c.find(c.locate(addr)) >= 0
}

// Access performs a load or store lookup at cycle now for warp wid; it
// is AccessSet for callers that fill later, after other accesses.
func (c *Cache) Access(addr memory.Addr, wid int, now uint64, isWrite bool) (hit bool) {
	hit, _ = c.AccessSet(addr, now, isWrite)
	return hit
}

// AccessSet performs a load or store lookup at cycle now. On a hit it
// updates LRU state and returns hit=true. On a miss the caller is
// expected to allocate an MSHR entry and later fill the line: with
// FillMiss on the returned Set when nothing touches the cache in
// between (the L2), else with Fill. Store behaviour follows the
// configured write policy: under write-through-no-allocate a store
// miss does not allocate and a store hit updates the line in place
// (and is propagated by the caller); under write-back a store hit
// marks the line dirty.
func (c *Cache) AccessSet(addr memory.Addr, now uint64, isWrite bool) (hit bool, s Set) {
	s.base, s.tag = c.locate(addr)
	s.way = c.find(s.base, s.tag)
	c.stats.Accesses++
	if s.way < 0 {
		c.stats.Misses++
		if isWrite {
			c.stats.WriteMiss++
		}
		return false, s
	}
	c.hit(s.way, now, isWrite)
	return true, s
}

// WriteHit is a store access at cycle now to the line s holds, as
// after FillMiss installed it: a write-allocate store miss counts its
// miss and then its write.
func (c *Cache) WriteHit(s Set, now uint64) {
	c.stats.Accesses++
	c.hit(s.way, now, true)
}

// hit records an access that found its line in way.
func (c *Cache) hit(way int, now uint64, isWrite bool) {
	c.lastUse[way] = now
	if isWrite {
		c.stats.WriteHits++
		if c.cfg.Write == WriteBackAllocate {
			c.dirty[way] = true
		}
	}
	c.stats.Hits++
}

// Fill installs the line for warp wid at cycle now, returning the
// eviction record when a valid line was displaced. Fill of an
// already-present line only refreshes its LRU state; its owner stays
// (this happens when two warps' misses to the same line were merged in
// the MSHR).
func (c *Cache) Fill(addr memory.Addr, wid int, now uint64) (ev Eviction, evicted bool) {
	base, tag := c.locate(addr)
	if i := c.find(base, tag); i >= 0 {
		c.stats.Fills++
		c.lastUse[i] = now
		return Eviction{}, false
	}
	return c.FillMiss(&Set{base: base, way: -1, tag: tag}, wid, now)
}

// FillMiss installs the absent line s locates for warp wid at cycle
// now, like Fill without its lookup, and points s at the line's way.
func (c *Cache) FillMiss(s *Set, wid int, now uint64) (ev Eviction, evicted bool) {
	c.stats.Fills++
	v := c.victim(s.base)
	if c.tags[v] != 0 {
		ev = Eviction{Line: memory.Addr(c.tags[v] &^ 1), OwnerWID: int(c.owner[v]), Evictor: wid, Dirty: c.dirty[v]}
		evicted = true
		c.stats.Evictions++
	}
	c.tags[v], c.lastUse[v], c.owner[v], c.dirty[v] = s.tag, now, int32(wid), false
	s.way = v
	return ev, evicted
}

// clear empties way i.
func (c *Cache) clear(i int) {
	c.tags[i], c.lastUse[i], c.owner[i], c.dirty[i] = 0, 0, 0, false
}

// Invalidate removes the line if present, returning whether it was
// present and dirty. CIAO uses this when migrating a line from L1D to
// the shared-memory cache (the single-copy coherence rule of §III-B).
func (c *Cache) Invalidate(addr memory.Addr) (present, dirty bool) {
	i := c.find(c.locate(addr))
	if i < 0 {
		return false, false
	}
	dirty = c.dirty[i]
	c.clear(i)
	c.stats.Invalidates++
	return true, dirty
}

// Stats returns a snapshot of the cache statistics.
func (c *Cache) Stats() Stats { return c.stats }
