package sharedmem

import (
	"fmt"

	"repro/internal/memory"
)

// Location is the physical placement of one cached 128-byte data block
// and its tag inside shared memory, as produced by the CIAO address
// translation unit (§IV-B, Figure 7c).
type Location struct {
	// BlockIndex is the direct-mapped cache block index (0..Blocks-1).
	BlockIndex int
	// DataGroup is the bank group (G bit) holding the data block.
	DataGroup int
	// DataRow is the row within each bank of the data group (R field),
	// already offset by the data offset register.
	DataRow int
	// TagGroup is the bank group holding the tag — always the opposite
	// of DataGroup, so tag and data are accessible in parallel.
	TagGroup int
	// TagRow is the row within the tag group's banks, already offset by
	// the tag offset register.
	TagRow int
	// TagSlot is the tag's position within its group row (0..31): the
	// 5 bits formed from the data block's 1 F and 4 B tag-position bits.
	TagSlot int
}

// Translator is the CIAO address translation unit placed in front of
// shared memory: it decomposes a global address into the byte offset
// (F), bank index (B), bank group (G) and row index (R) fields and
// derives the parallel-accessible tag position. The data and tag
// offset registers rebase both regions into the unused shared-memory
// space reserved via the SMMT.
type Translator struct {
	blocks        int // total data blocks (both groups)
	rowsPerGroup  int // data rows used per group
	dataOffsetRow int // data offset register, in rows
	tagOffsetRow  int // tag offset register, in rows
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

// NewTranslator builds a translation unit for a reserved region of
// unusedBytes starting at baseOffset bytes within shared memory. It
// returns an error when the region is too small to hold even one
// data block plus its tag row.
func NewTranslator(baseOffset, unusedBytes int) (*Translator, error) {
	blocks, dataRows, _ := PlanCapacity(unusedBytes)
	if blocks == 0 {
		return nil, fmt.Errorf("sharedmem: %dB unused is too small for a shared-memory cache", unusedBytes)
	}
	baseRow := baseOffset / GroupRowBytes / BankGroups
	return &Translator{
		blocks:        blocks,
		rowsPerGroup:  dataRows,
		dataOffsetRow: baseRow,
		tagOffsetRow:  baseRow + dataRows,
	}, nil
}

// Blocks returns the number of 128-byte blocks the cache region holds.
func (t *Translator) Blocks() int { return t.blocks }

// Translate maps a global line address to its direct-mapped location.
// The block index is the line number modulo the block count; the G bit
// is its LSB (alternating groups balances the two groups) and the R
// field the remaining bits, matching the F/B/G/R decomposition of
// Figure 7c with the offset registers applied.
func (t *Translator) Translate(addr memory.Addr) Location {
	lineNo := addr.LineIndex()
	blockIdx := int(lineNo % uint64(t.blocks))
	g := blockIdx & 1
	r := blockIdx >> 1

	// Tag placement (§IV-B): the tag lives in the opposite group. Its
	// slot within a group row comes from the data block's low 5
	// tag-position bits (1 F + 4 B); its row from the remaining R bits.
	tagSlot := r & (TagsPerGroupRow - 1)
	tagRow := r / TagsPerGroupRow

	return Location{
		BlockIndex: blockIdx,
		DataGroup:  g,
		DataRow:    t.dataOffsetRow + r,
		TagGroup:   g ^ 1,
		TagRow:     t.tagOffsetRow + tagRow,
		TagSlot:    tagSlot,
	}
}

// Tag returns the stored tag for a global address: the line bits above
// the block index. Together with the 6-bit WID this is the 31-bit tag
// of §IV-B.
func (t *Translator) Tag(addr memory.Addr) uint64 {
	return addr.LineIndex() / uint64(t.blocks)
}
