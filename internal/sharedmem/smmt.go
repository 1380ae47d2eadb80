// Package sharedmem models the GPU on-chip shared memory of the CIAO
// paper: 48KB organised as 32 independently addressable banks (two
// groups of 16), managed through a Shared Memory Management Table
// (SMMT), plus the CIAO extensions — an address translation unit that
// maps global addresses into the unused shared-memory space and a
// direct-mapped cache operated in that space with tags and data blocks
// striped across opposite bank groups (§IV-B).
package sharedmem

import (
	"fmt"
	"sort"
)

// Geometry constants of the on-chip memory structure (§II-A, §IV-B).
const (
	// NumBanks is the number of shared-memory banks.
	NumBanks = 32
	// BankGroups is the number of CIAO bank groups.
	BankGroups = 2
	// BanksPerGroup is NumBanks / BankGroups.
	BanksPerGroup = 16
	// BankRowBytes is the width of one bank row (64-bit accesses [14]).
	BankRowBytes = 8
	// GroupRowBytes is the bytes one row spans across a full group —
	// exactly one 128-byte data block.
	GroupRowBytes = BanksPerGroup * BankRowBytes
	// DefaultSize is the Table I shared-memory capacity.
	DefaultSize = 48 << 10
	// MaxRowsPerGroup bounds the R field (8 bits, §IV-B).
	MaxRowsPerGroup = 256
	// TagBytes is the storage for one tag: a 25-bit tag + 6-bit WID =
	// 31 bits, stored in half of an 8-byte bank row (two tags per row).
	TagBytes = 4
	// TagsPerGroupRow is how many tags fit in one row of a bank group:
	// 16 banks × 2 tags per bank row.
	TagsPerGroupRow = BanksPerGroup * 2
)

// SMMTEntry is one Shared Memory Management Table record: the base and
// size of a shared-memory allocation owned by a CTA (or, for CIAO, the
// reserved cache region).
type SMMTEntry struct {
	// CTAID identifies the owner; CIAO's cache reservation uses
	// CIAOReservationID.
	CTAID int
	// Base is the starting byte offset within shared memory.
	Base int
	// Size is the allocation length in bytes.
	Size int
}

// CIAOReservationID is the pseudo-CTA id under which CIAO reserves the
// unused space for its shared-memory cache.
const CIAOReservationID = -1

// SMMT is the Shared Memory Management Table: a small per-SM table in
// which each CTA reserves one entry recording its allocation (§II-A).
type SMMT struct {
	capacity int
	size     int
	entries  []SMMTEntry
}

// NewSMMT builds a table for a shared memory of size bytes with at
// most maxEntries allocations.
func NewSMMT(size, maxEntries int) *SMMT {
	if size <= 0 || maxEntries <= 0 {
		panic("sharedmem: non-positive SMMT geometry")
	}
	return &SMMT{capacity: maxEntries, size: size}
}

// Reserve allocates size bytes for ctaID at the lowest free offset,
// returning the base. It fails when the table is full, the id already
// holds an entry, or no contiguous region fits.
func (t *SMMT) Reserve(ctaID, size int) (base int, err error) {
	if size <= 0 {
		return 0, fmt.Errorf("sharedmem: reserve of %d bytes", size)
	}
	if len(t.entries) >= t.capacity {
		return 0, fmt.Errorf("sharedmem: SMMT full (%d entries)", t.capacity)
	}
	for _, e := range t.entries {
		if e.CTAID == ctaID {
			return 0, fmt.Errorf("sharedmem: CTA %d already has an SMMT entry", ctaID)
		}
	}
	// First-fit over gaps between sorted allocations.
	sorted := append([]SMMTEntry(nil), t.entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	cursor := 0
	for _, e := range sorted {
		if e.Base-cursor >= size {
			break
		}
		cursor = e.Base + e.Size
	}
	if cursor+size > t.size {
		return 0, fmt.Errorf("sharedmem: no room for %dB (used %dB of %dB)", size, t.Used(), t.size)
	}
	t.entries = append(t.entries, SMMTEntry{CTAID: ctaID, Base: cursor, Size: size})
	return cursor, nil
}

// Release frees ctaID's entry, reporting whether one existed.
func (t *SMMT) Release(ctaID int) bool {
	for i, e := range t.entries {
		if e.CTAID == ctaID {
			t.entries = append(t.entries[:i], t.entries[i+1:]...)
			return true
		}
	}
	return false
}

// Used returns the total allocated bytes.
func (t *SMMT) Used() int {
	n := 0
	for _, e := range t.entries {
		n += e.Size
	}
	return n
}

// Unused returns the free bytes — the space CIAO can claim (§IV-B,
// "Determination of unused shared memory space").
func (t *SMMT) Unused() int { return t.size - t.Used() }

// LargestFreeRegion returns the base and size of the largest
// contiguous free region.
func (t *SMMT) LargestFreeRegion() (base, size int) {
	sorted := append([]SMMTEntry(nil), t.entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Base < sorted[j].Base })
	cursor := 0
	for _, e := range sorted {
		if gap := e.Base - cursor; gap > size {
			base, size = cursor, gap
		}
		if end := e.Base + e.Size; end > cursor {
			cursor = end
		}
	}
	if gap := t.size - cursor; gap > size {
		base, size = cursor, gap
	}
	return base, size
}

// Size returns the shared-memory capacity covered by the table.
func (t *SMMT) Size() int { return t.size }

// Entries returns a copy of the live entries.
func (t *SMMT) Entries() []SMMTEntry {
	return append([]SMMTEntry(nil), t.entries...)
}
