package sharedmem

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

func TestSMMTReserve(t *testing.T) {
	s := NewSMMT(48<<10, 8)
	base, err := s.Reserve(0, 16<<10)
	if err != nil || base != 0 {
		t.Fatalf("reserve = (%d,%v)", base, err)
	}
	base, err = s.Reserve(1, 8<<10)
	if err != nil || base != 16<<10 {
		t.Fatalf("second reserve = (%d,%v), want base 16KB", base, err)
	}
	if s.used != 24<<10 {
		t.Fatalf("used = %d", s.used)
	}
}

func TestSMMTErrors(t *testing.T) {
	s := NewSMMT(48<<10, 2)
	if _, err := s.Reserve(0, 0); err == nil {
		t.Error("zero-size reserve accepted")
	}
	s.Reserve(0, 1<<10)
	if _, err := s.Reserve(0, 1<<10); err == nil {
		t.Error("duplicate CTA accepted")
	}
	s.Reserve(1, 1<<10)
	if _, err := s.Reserve(2, 1<<10); err == nil {
		t.Error("reserve beyond entry capacity accepted")
	}
	s2 := NewSMMT(4<<10, 8)
	if _, err := s2.Reserve(0, 8<<10); err == nil {
		t.Error("oversized reserve accepted")
	}
}

func TestSMMTLargestFreeRegion(t *testing.T) {
	s := NewSMMT(48<<10, 8)
	s.Reserve(0, 8<<10)  // [0,8K)
	s.Reserve(1, 16<<10) // [8K,24K)
	base, size := s.LargestFreeRegion()
	if base != 24<<10 || size != 24<<10 {
		t.Fatalf("largest free = (%d,%d), want (24K,24K)", base, size)
	}
}

func TestPlanCapacityFullSharedMemory(t *testing.T) {
	// 48KB fully unused: 48K / (2*128) = 192 rows per group.
	// d + ceil(d/32) <= 192 → d = 186 (186+6=192).
	blocks, dataRows, tagRows := PlanCapacity(48 << 10)
	if dataRows != 186 || tagRows != 6 || blocks != 372 {
		t.Fatalf("PlanCapacity(48K) = (%d,%d,%d), want (372,186,6)", blocks, dataRows, tagRows)
	}
}

func TestPlanCapacityRespectsRowBound(t *testing.T) {
	// 128KB would exceed the 8-bit R field; must clamp to 256 rows.
	_, dataRows, _ := PlanCapacity(128 << 10)
	if dataRows+((dataRows+TagsPerGroupRow-1)/TagsPerGroupRow) > MaxRowsPerGroup {
		t.Fatalf("row budget exceeded: %d data rows", dataRows)
	}
}

func TestPlanCapacityTiny(t *testing.T) {
	if b, _, _ := PlanCapacity(0); b != 0 {
		t.Error("zero bytes should yield zero blocks")
	}
	if b, _, _ := PlanCapacity(100); b != 0 {
		t.Error("sub-row region should yield zero blocks")
	}
	// One row per group: cannot host data+tag.
	if b, _, _ := PlanCapacity(2 * GroupRowBytes); b != 0 {
		t.Errorf("2 rows should be too small, got %d blocks", b)
	}
	// Two rows per group: 1 data + 1 tag works.
	b, d, tg := PlanCapacity(4 * GroupRowBytes)
	if b != 2 || d != 1 || tg != 1 {
		t.Errorf("PlanCapacity(4 rows) = (%d,%d,%d), want (2,1,1)", b, d, tg)
	}
}

// Property: planned rows always fit the budget and blocks = 2*dataRows.
func TestPlanCapacityInvariant(t *testing.T) {
	f := func(kb uint8) bool {
		unused := int(kb) << 10
		blocks, d, tg := PlanCapacity(unused)
		rows := unused / (BankGroups * GroupRowBytes)
		if rows > MaxRowsPerGroup {
			rows = MaxRowsPerGroup
		}
		if blocks == 0 {
			return d == 0
		}
		return blocks == 2*d && d+tg <= rows && tg == (d+TagsPerGroupRow-1)/TagsPerGroupRow
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// location is the Figure 7c placement of one cached block and its tag
// in shared memory, as the paper's address translation unit (§IV-B)
// computes it.
type location struct {
	dataGroup, dataRow        int // bank group (G bit) and row (R field) of the data
	tagGroup, tagRow, tagSlot int // the tag's group, row and slot (1 F + 4 B bits)
}

// place returns the placement of every block of a cache in unusedBytes
// of shared memory from byte baseOffset. Block b's data sits in group
// b&1 at row b>>1 past the data offset register. Its tag sits in the
// other group, 32 per row, past the tag offset register, which follows
// the data rows.
func place(baseOffset, unusedBytes int) []location {
	blocks, dataRows, _ := PlanCapacity(unusedBytes)
	dataOffset := baseOffset / GroupRowBytes / BankGroups
	tagOffset := dataOffset + dataRows
	locs := make([]location, blocks)
	for b := range locs {
		g, r := b&1, b>>1
		locs[b] = location{
			dataGroup: g, dataRow: dataOffset + r,
			tagGroup: g ^ 1, tagRow: tagOffset + r/TagsPerGroupRow, tagSlot: r % TagsPerGroupRow,
		}
	}
	return locs
}

func newCache(t *testing.T, unusedBytes int) *Cache {
	t.Helper()
	c, err := NewCache(unusedBytes)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTranslatorTagDataOppositeGroups(t *testing.T) {
	for _, region := range [][2]int{{0, 48 << 10}, {16 << 10, 32 << 10}} {
		for b, loc := range place(region[0], region[1]) {
			if loc.dataGroup == loc.tagGroup {
				t.Fatalf("region %v, block %d: tag and data share group %d (bank conflict)", region, b, loc.dataGroup)
			}
			if loc.tagSlot < 0 || loc.tagSlot >= TagsPerGroupRow {
				t.Fatalf("region %v, block %d: tag slot %d out of range", region, b, loc.tagSlot)
			}
		}
	}
}

func TestTranslatorDirectMappedDistinctLocations(t *testing.T) {
	data, tags := map[[2]int]int{}, map[[3]int]int{}
	for b, loc := range place(0, 48<<10) {
		d := [2]int{loc.dataGroup, loc.dataRow}
		if prev, dup := data[d]; dup {
			t.Fatalf("blocks %d and %d share data location %v", prev, b, d)
		}
		data[d] = b
		tg := [3]int{loc.tagGroup, loc.tagRow, loc.tagSlot}
		if prev, dup := tags[tg]; dup {
			t.Fatalf("blocks %d and %d share tag location %v", prev, b, tg)
		}
		tags[tg] = b
	}
	// The cache maps consecutive lines to distinct blocks.
	c := newCache(t, 48<<10)
	seen := map[*sharedBlock]int{}
	for i := range c.blocks {
		blk, _ := c.locate(memory.Addr(i) * memory.LineSize)
		if prev, dup := seen[blk]; dup {
			t.Fatalf("lines %d and %d share a block", prev, i)
		}
		seen[blk] = i
	}
}

func TestTranslatorSameBlockDifferentTag(t *testing.T) {
	c := newCache(t, 48<<10)
	n := uint64(len(c.blocks))
	for line := uint64(0); line < 4*n; line += 7 {
		blk, tag := c.locate(memory.Addr(line * memory.LineSize))
		if blk != &c.blocks[line%n] || tag != line/n {
			t.Fatalf("line %d: tag %d, want block %d and tag %d", line, tag, line%n, line/n)
		}
	}
	b1, t1 := c.locate(0)
	b2, t2 := c.locate(memory.Addr(n * memory.LineSize)) // wraps to block 0
	if b1 != b2 {
		t.Fatal("expected the same block")
	}
	if t1 == t2 {
		t.Fatal("conflicting lines must have distinct tags")
	}
}

func TestTranslatorOffsetRegisters(t *testing.T) {
	base, unused := 16<<10, 32<<10 // CIAO region starts after a 16KB CTA allocation
	_, dataRows, tagRows := PlanCapacity(unused)
	baseRow := base / GroupRowBytes / BankGroups
	endRow := baseRow + unused/(BankGroups*GroupRowBytes)
	for b, loc := range place(base, unused) {
		if loc.dataRow < baseRow || loc.dataRow >= baseRow+dataRows {
			t.Fatalf("block %d: data row %d outside [%d,%d)", b, loc.dataRow, baseRow, baseRow+dataRows)
		}
		if loc.tagRow < baseRow+dataRows || loc.tagRow >= baseRow+dataRows+tagRows || loc.tagRow >= endRow {
			t.Fatalf("block %d: tag row %d overlaps the data rows or leaves the region", b, loc.tagRow)
		}
	}
}

func TestNewTranslatorTooSmall(t *testing.T) {
	if _, err := NewCache(64); err == nil {
		t.Fatal("tiny region accepted")
	}
}

func TestSharedCacheMissFillHit(t *testing.T) {
	c := newCache(t, 48<<10)
	if c.Access(0x1000, 3) {
		t.Fatal("cold access hit")
	}
	if _, _, ev := c.Fill(0x1000, 3); ev {
		t.Fatal("fill into empty block evicted")
	}
	if !c.Access(0x1000, 3) {
		t.Fatal("access after fill missed")
	}
	if !c.Probe(0x1040) {
		t.Fatal("same-line probe missed")
	}
}

func TestSharedCacheConflictEviction(t *testing.T) {
	c := newCache(t, 48<<10)
	a1 := memory.Addr(0)
	a2 := memory.Addr(uint64(len(c.blocks)) * memory.LineSize)
	c.Fill(a1, 1)
	line, wid, ev := c.Fill(a2, 2)
	if !ev || wid != 1 || line != a1 {
		t.Fatalf("eviction = (%#x,%d,%v), want (0x0,1,true)", line, wid, ev)
	}
	if c.Probe(a1) {
		t.Fatal("evicted line still resident")
	}
}

func TestSharedCacheUtilization(t *testing.T) {
	c := newCache(t, 48<<10)
	if c.Utilization() != 0 {
		t.Fatal("empty cache should report 0 utilization")
	}
	half := len(c.blocks) / 2
	for i := 0; i < half; i++ {
		c.Fill(memory.Addr(i)*memory.LineSize, 0)
	}
	u := c.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %f, want ~0.5", u)
	}
}
