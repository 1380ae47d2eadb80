package sharedmem

import (
	"repro/internal/memory"
)

// CacheStats aggregates shared-memory-cache activity.
type CacheStats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Fills     uint64
}

// HitRate returns Hits/Accesses (0 when idle).
func (s CacheStats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Cache is the direct-mapped cache CIAO operates in unused shared
// memory (§IV-B). Each block records the 25-bit-equivalent tag and the
// 6-bit WID of the filling warp; a single shared-memory access fetches
// the tag and data block in parallel because they live in opposite
// bank groups.
type Cache struct {
	tr     *Translator
	blocks []sharedBlock
	stats  CacheStats
}

type sharedBlock struct {
	valid bool
	tag   uint64
	line  memory.Addr
	wid   int
}

// NewCache builds the shared-memory cache over a translator.
func NewCache(tr *Translator) *Cache {
	return &Cache{tr: tr, blocks: make([]sharedBlock, tr.Blocks())}
}

// Access looks the global address up. Like the L1D model, a miss does
// not allocate: the caller issues a fill request through the (shared)
// MSHR and calls Fill when the data returns from L2 or migrates from
// L1D.
func (c *Cache) Access(addr memory.Addr, wid int) (hit bool) {
	loc := c.tr.Translate(addr)
	c.stats.Accesses++
	b := &c.blocks[loc.BlockIndex]
	if b.valid && b.tag == c.tr.Tag(addr) {
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// Fill installs the line, returning the displaced block's owner and
// line when a valid block was evicted. Shared-memory evictions feed
// the same VTA as L1D evictions (§III-C: L1D and shared memory share
// one interference detector).
func (c *Cache) Fill(addr memory.Addr, wid int) (evictedLine memory.Addr, evictedWID int, evicted bool) {
	loc := c.tr.Translate(addr)
	c.stats.Fills++
	b := &c.blocks[loc.BlockIndex]
	if b.valid && b.tag != c.tr.Tag(addr) {
		evictedLine, evictedWID, evicted = b.line, b.wid, true
		c.stats.Evictions++
	}
	*b = sharedBlock{valid: true, tag: c.tr.Tag(addr), line: addr.LineAddr(), wid: wid}
	return evictedLine, evictedWID, evicted
}

// Probe checks residency without touching statistics.
func (c *Cache) Probe(addr memory.Addr) bool {
	loc := c.tr.Translate(addr)
	b := &c.blocks[loc.BlockIndex]
	return b.valid && b.tag == c.tr.Tag(addr)
}

// Occupied reports how many blocks hold valid lines.
func (c *Cache) Occupied() int {
	n := 0
	for i := range c.blocks {
		if c.blocks[i].valid {
			n++
		}
	}
	return n
}

// Utilization returns the fraction of cache blocks in use — the
// shared-memory utilization ratio of Figure 8b.
func (c *Cache) Utilization() float64 {
	if len(c.blocks) == 0 {
		return 0
	}
	return float64(c.Occupied()) / float64(len(c.blocks))
}

// Stats returns a snapshot of the statistics.
func (c *Cache) Stats() CacheStats { return c.stats }
