package sharedmem

import (
	"fmt"

	"repro/internal/memory"
)

// CacheStats aggregates shared-memory-cache activity; misses are
// Accesses - Hits.
type CacheStats struct {
	Accesses uint64
	Hits     uint64
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
//
// A line's block is its line number modulo the block count and its tag
// the quotient, one DivMod per access. The paper's address translation
// unit also places block b's data in bank group b&1 at row b>>1 of the
// region, and its tag in the opposite group (Figure 7c). That placement
// decides no timing in this model, so only the tests compute it.
type Cache struct {
	div    memory.Divisor // by the block count
	blocks []sharedBlock
	stats  CacheStats
}

type sharedBlock struct {
	valid bool
	tag   uint64
	line  memory.Addr
	wid   int
}

// PlanCapacity computes how many 128-byte data blocks (and supporting
// tag rows) fit into unusedBytes of shared memory, honouring the
// paper's layout: data blocks striped across the 16 banks of one
// group (one block per group row), tags packed 32 per group row in the
// opposite group. Both groups are used symmetrically, so the usable
// rows per group are unusedBytes / (2*GroupRowBytes); each group then
// splits its rows between d data rows and ceil(d/TagsPerGroupRow) tag
// rows for the other group's blocks.
func PlanCapacity(unusedBytes int) (blocks, dataRowsPerGroup, tagRowsPerGroup int) {
	rowsPerGroup := unusedBytes / (BankGroups * GroupRowBytes)
	if rowsPerGroup > MaxRowsPerGroup {
		rowsPerGroup = MaxRowsPerGroup
	}
	if rowsPerGroup <= 0 {
		return 0, 0, 0
	}
	// Largest d with d + ceil(d/32) <= rowsPerGroup.
	d := rowsPerGroup
	for d > 0 {
		tagRows := (d + TagsPerGroupRow - 1) / TagsPerGroupRow
		if d+tagRows <= rowsPerGroup {
			break
		}
		d--
	}
	if d == 0 {
		return 0, 0, 0
	}
	return d * BankGroups, d, (d + TagsPerGroupRow - 1) / TagsPerGroupRow
}

// NewCache builds the shared-memory cache in a reserved region of
// unusedBytes. It returns an error when the region is too small to hold
// even one data block plus its tag row.
func NewCache(unusedBytes int) (*Cache, error) {
	blocks, _, _ := PlanCapacity(unusedBytes)
	if blocks == 0 {
		return nil, fmt.Errorf("sharedmem: %dB unused is too small for a shared-memory cache", unusedBytes)
	}
	return &Cache{div: memory.NewDivisor(uint64(blocks)), blocks: make([]sharedBlock, blocks)}, nil
}

// locate returns the block addr maps to and addr's tag there.
func (c *Cache) locate(addr memory.Addr) (*sharedBlock, uint64) {
	tag, block := c.div.DivMod(addr.LineIndex())
	return &c.blocks[block], tag
}

// Access looks the global address up. Like the L1D model, a miss does
// not allocate: the caller issues a fill request through the (shared)
// MSHR and calls Fill when the data returns from L2 or migrates from
// L1D.
func (c *Cache) Access(addr memory.Addr, wid int) (hit bool) {
	b, tag := c.locate(addr)
	c.stats.Accesses++
	if b.valid && b.tag == tag {
		c.stats.Hits++
		return true
	}
	return false
}

// Fill installs the line, returning the displaced block's owner and
// line when a valid block was evicted. Shared-memory evictions feed
// the same VTA as L1D evictions (§III-C: L1D and shared memory share
// one interference detector).
func (c *Cache) Fill(addr memory.Addr, wid int) (evictedLine memory.Addr, evictedWID int, evicted bool) {
	b, tag := c.locate(addr)
	if b.valid && b.tag != tag {
		evictedLine, evictedWID, evicted = b.line, b.wid, true
	}
	*b = sharedBlock{valid: true, tag: tag, line: addr.LineAddr(), wid: wid}
	return evictedLine, evictedWID, evicted
}

// Probe checks residency without touching statistics.
func (c *Cache) Probe(addr memory.Addr) bool {
	b, tag := c.locate(addr)
	return b.valid && b.tag == tag
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
	return float64(c.Occupied()) / float64(len(c.blocks))
}

// Stats returns a snapshot of the statistics.
func (c *Cache) Stats() CacheStats { return c.stats }
