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

func TestTranslatorTagDataOppositeGroups(t *testing.T) {
	tr, err := NewTranslator(0, 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	for a := memory.Addr(0); a < 1024*memory.LineSize; a += memory.LineSize {
		loc := tr.Translate(a)
		if loc.DataGroup == loc.TagGroup {
			t.Fatalf("addr %s: tag and data share group %d (bank conflict)", a, loc.DataGroup)
		}
		if loc.BlockIndex < 0 || loc.BlockIndex >= tr.Blocks() {
			t.Fatalf("addr %s: block %d out of range", a, loc.BlockIndex)
		}
		if loc.TagSlot < 0 || loc.TagSlot >= TagsPerGroupRow {
			t.Fatalf("addr %s: tag slot %d out of range", a, loc.TagSlot)
		}
	}
}

func TestTranslatorDirectMappedDistinctLocations(t *testing.T) {
	tr, err := NewTranslator(0, 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[[2]int]int{}
	for b := 0; b < tr.Blocks(); b++ {
		a := memory.Addr(b) * memory.LineSize
		loc := tr.Translate(a)
		key := [2]int{loc.DataGroup, loc.DataRow}
		if prev, dup := seen[key]; dup {
			t.Fatalf("blocks %d and %d share data location %v", prev, b, key)
		}
		seen[key] = b
	}
}

func TestTranslatorSameBlockDifferentTag(t *testing.T) {
	tr, _ := NewTranslator(0, 48<<10)
	a1 := memory.Addr(0)
	a2 := memory.Addr(uint64(tr.Blocks()) * memory.LineSize) // wraps to block 0
	l1, l2 := tr.Translate(a1), tr.Translate(a2)
	if l1.BlockIndex != l2.BlockIndex {
		t.Fatalf("expected same block, got %d vs %d", l1.BlockIndex, l2.BlockIndex)
	}
	if tr.Tag(a1) == tr.Tag(a2) {
		t.Fatal("conflicting lines must have distinct tags")
	}
}

func TestTranslatorOffsetRegisters(t *testing.T) {
	base := 16 << 10 // CIAO region starts after a 16KB CTA allocation
	tr, err := NewTranslator(base, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	baseRow := base / GroupRowBytes / BankGroups
	loc := tr.Translate(0)
	if loc.DataRow < baseRow {
		t.Fatalf("data row %d precedes region base row %d", loc.DataRow, baseRow)
	}
	if loc.TagRow < baseRow+tr.rowsPerGroup {
		t.Fatalf("tag row %d overlaps data rows", loc.TagRow)
	}
}

func TestNewTranslatorTooSmall(t *testing.T) {
	if _, err := NewTranslator(0, 64); err == nil {
		t.Fatal("tiny region accepted")
	}
}

func TestSharedCacheMissFillHit(t *testing.T) {
	tr, _ := NewTranslator(0, 48<<10)
	c := NewCache(tr)
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
	tr, _ := NewTranslator(0, 48<<10)
	c := NewCache(tr)
	a1 := memory.Addr(0)
	a2 := memory.Addr(uint64(tr.Blocks()) * memory.LineSize)
	c.Fill(a1, 1)
	line, wid, ev := c.Fill(a2, 2)
	if !ev || wid != 1 || line != a1 {
		t.Fatalf("eviction = (%s,%d,%v), want (0x0,1,true)", line, wid, ev)
	}
	if c.Probe(a1) {
		t.Fatal("evicted line still resident")
	}
}

func TestSharedCacheUtilization(t *testing.T) {
	tr, _ := NewTranslator(0, 48<<10)
	c := NewCache(tr)
	if c.Utilization() != 0 {
		t.Fatal("empty cache should report 0 utilization")
	}
	half := tr.Blocks() / 2
	for i := 0; i < half; i++ {
		c.Fill(memory.Addr(i)*memory.LineSize, 0)
	}
	u := c.Utilization()
	if u < 0.45 || u > 0.55 {
		t.Fatalf("utilization = %f, want ~0.5", u)
	}
}
