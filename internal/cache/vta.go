package cache

import "repro/internal/memory"

// VTA is the Victim Tag Array of CCWS as adapted by CIAO (§II-C,
// Table I: 8 tags per set, 48 sets — one set per hardware warp slot —
// FIFO replacement). Each entry stores the evicted line's address and
// the WID of the warp whose fill performed the eviction, so that a
// subsequent VTA hit both signals lost locality for the owner warp and
// names the interfering warp.
type VTA struct {
	tagsPerSet int
	sets       [][]vtaEntry
	// next is the FIFO insertion cursor per set.
	next []int
}

// vtaEntry is one victim tag: the evicted line stored as line|1, 0
// meaning empty (line addresses have zero low bits), as the cache
// tags do, and the evicting warp.
type vtaEntry struct {
	tag     uint64
	evictor int
}

// NewVTA builds a VTA with one set per warp slot.
func NewVTA(numWarps, tagsPerSet int) *VTA {
	if numWarps <= 0 || tagsPerSet <= 0 {
		panic("cache: VTA geometry must be positive")
	}
	sets := make([][]vtaEntry, numWarps)
	backing := make([]vtaEntry, numWarps*tagsPerSet)
	for i := range sets {
		sets[i], backing = backing[:tagsPerSet], backing[tagsPerSet:]
	}
	return &VTA{tagsPerSet: tagsPerSet, sets: sets, next: make([]int, numWarps)}
}

// Insert records that ownerWID's line was evicted by evictorWID,
// displacing the oldest entry of the owner's set (FIFO) if full.
func (v *VTA) Insert(ownerWID int, line memory.Addr, evictorWID int) {
	if ownerWID < 0 || ownerWID >= len(v.sets) {
		return
	}
	set := v.sets[ownerWID]
	cur := v.next[ownerWID]
	set[cur] = vtaEntry{tag: uint64(line.LineAddr()) | 1, evictor: evictorWID}
	if cur++; cur == v.tagsPerSet {
		cur = 0
	}
	v.next[ownerWID] = cur
}

// Probe checks whether a miss by warp wid on line was previously
// evicted (a VTA hit — lost locality). On a hit the entry is consumed
// and the evicting warp's WID is returned.
func (v *VTA) Probe(wid int, line memory.Addr) (hit bool, evictorWID int) {
	if wid < 0 || wid >= len(v.sets) {
		return false, 0
	}
	tag := uint64(line.LineAddr()) | 1
	set := v.sets[wid]
	for i := range set {
		if set[i].tag == tag {
			ev := set[i].evictor
			set[i] = vtaEntry{}
			return true, ev
		}
	}
	return false, 0
}
