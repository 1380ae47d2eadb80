// Package sharedmem models the GPU on-chip shared memory of the CIAO
// paper: 48KB organised as 32 independently addressable banks (two
// groups of 16), managed through a Shared Memory Management Table
// (SMMT), plus the CIAO extension: a direct-mapped cache operated in
// the unused shared-memory space, with tags and data blocks striped
// across opposite bank groups (§IV-B).
package sharedmem

import (
	"fmt"
	"slices"
)

// Geometry constants of the on-chip memory structure (§II-A, §IV-B).
const (
	// BankGroups is the number of CIAO bank groups.
	BankGroups = 2
	// BanksPerGroup is the bank count of one group: the 32 banks form
	// two groups of 16.
	BanksPerGroup = 16
	// BankRowBytes is the width of one bank row (64-bit accesses [14]).
	BankRowBytes = 8
	// GroupRowBytes is the bytes one row spans across a full group —
	// exactly one 128-byte data block.
	GroupRowBytes = BanksPerGroup * BankRowBytes
	// MaxRowsPerGroup bounds the R field (8 bits, §IV-B).
	MaxRowsPerGroup = 256
	// TagsPerGroupRow is how many tags fit in one row of a bank group:
	// 16 banks × 2 tags per bank row (a 25-bit tag and a 6-bit WID fill
	// half of an 8-byte bank row).
	TagsPerGroupRow = BanksPerGroup * 2
)

// CIAOReservationID is the pseudo-CTA id under which CIAO reserves the
// unused space for its shared-memory cache.
const CIAOReservationID = -1

// SMMT is the Shared Memory Management Table: a small per-SM table in
// which each CTA reserves one entry recording its allocation (§II-A).
// Entries are never freed: every CTA's warps stay resident until the
// kernel ends, so the allocations pack the space from offset 0 and the
// free space is the tail after the last one. Of each entry the model
// keeps only its owner, the CTA id (CIAO's cache reservation uses
// CIAOReservationID).
type SMMT struct {
	capacity int
	size     int
	used     int   // allocated bytes; the free tail starts here
	ctas     []int // the owner of each entry
}

// NewSMMT builds a table for a shared memory of size bytes with at
// most maxEntries allocations.
func NewSMMT(size, maxEntries int) *SMMT {
	if size <= 0 || maxEntries <= 0 {
		panic("sharedmem: non-positive SMMT geometry")
	}
	return &SMMT{capacity: maxEntries, size: size}
}

// Reserve allocates size bytes for ctaID at the start of the free
// tail, returning the base. It fails when the table is full, the id
// already holds an entry, or the free tail is too short.
func (t *SMMT) Reserve(ctaID, size int) (base int, err error) {
	if size <= 0 {
		return 0, fmt.Errorf("sharedmem: reserve of %d bytes", size)
	}
	if len(t.ctas) >= t.capacity {
		return 0, fmt.Errorf("sharedmem: SMMT full (%d entries)", t.capacity)
	}
	if slices.Contains(t.ctas, ctaID) {
		return 0, fmt.Errorf("sharedmem: CTA %d already has an SMMT entry", ctaID)
	}
	if t.used+size > t.size {
		return 0, fmt.Errorf("sharedmem: no room for %dB (used %dB of %dB)", size, t.used, t.size)
	}
	base = t.used
	t.ctas = append(t.ctas, ctaID)
	t.used += size
	return base, nil
}

// LargestFreeRegion returns the base and size of the largest
// contiguous free region: the free tail, the space CIAO can claim
// (§IV-B, "Determination of unused shared memory space").
func (t *SMMT) LargestFreeRegion() (base, size int) { return t.used, t.size - t.used }
