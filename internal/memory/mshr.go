package memory

import (
	"fmt"
	"math/bits"
)

// MSHREntry tracks one outstanding line miss and the requests merged
// into it. CIAO marks entries whose fill returns to the shared-memory
// cache instead of L1D (Section IV-B, "Datapath connection"); the fill
// path locates the shared-memory block from the line itself.
type MSHREntry struct {
	// Line is the missing global line address.
	Line Addr
	// Merged are the requests waiting on this line, in arrival order.
	Merged []Request
	// SharedValid reports that the fill goes to the shared-memory
	// cache rather than L1D.
	SharedValid bool
}

// MSHR is a miss status holding register file: a bounded table of
// outstanding line misses with request merging.
//
// Lookups go through a small open-addressed hash table (linear
// probing, backward-shift deletion) instead of a Go map: the table has
// at most a few dozen live entries but sits on the per-access hot path
// of every cache level, where the map's generic hashing and bucket
// walk were ~9% of simulation CPU. Sized at ≥2× capacity the table
// always has empty slots, so probes terminate without tombstones.
//
// A miss costs one probe: Find returns the line's entry or the vacant
// slot for it, and the caller then merges into the entry or inserts at
// the slot.
//
// Entries are pooled: Fill recycles the retired entry's storage into a
// free list that the next Insert reuses (including the Merged slice's
// backing array), so the steady-state miss path performs no heap
// allocation. Consequently an entry returned by Fill (or Find) is
// only valid until the next Insert call — callers must finish
// walking Merged before issuing new misses, which the single-threaded
// cycle loop does naturally.
type MSHR struct {
	capacity     int
	maxMergedPer int
	slots        []*MSHREntry // open-addressed by line address
	mask         int          // len(slots)-1; len is a power of two
	shift        uint         // 64 - log2(len(slots)), for the hash
	live         int
	free         []*MSHREntry // recycled entries, LIFO
	stalls       uint64
	mergeCount   uint64
	allocations  uint64
}

// NewMSHR returns an MSHR with the given number of entries and maximum
// merged requests per entry. Both must be positive. The entry pool,
// per-entry merge slices and the probe table are preallocated up front.
func NewMSHR(entries, maxMergedPerEntry int) *MSHR {
	if entries <= 0 || maxMergedPerEntry <= 0 {
		panic(fmt.Sprintf("memory: invalid MSHR shape %d×%d", entries, maxMergedPerEntry))
	}
	size := 1 << bits.Len(uint(2*entries-1)) // next power of two ≥ 2×entries
	if size < 8 {
		size = 8
	}
	m := &MSHR{
		capacity:     entries,
		maxMergedPer: maxMergedPerEntry,
		slots:        make([]*MSHREntry, size),
		mask:         size - 1,
		shift:        uint(64 - bits.TrailingZeros(uint(size))),
		free:         make([]*MSHREntry, 0, entries),
	}
	backing := make([]MSHREntry, entries)
	for i := range backing {
		backing[i].Merged = make([]Request, 0, maxMergedPerEntry)
		m.free = append(m.free, &backing[i])
	}
	return m
}

// home is the preferred slot of a line: a Fibonacci multiplicative
// hash taking the top bits, which spreads the zeroed low line-offset
// bits well.
func (m *MSHR) home(line Addr) int {
	return int((uint64(line) * 0x9E3779B97F4A7C15) >> m.shift)
}

// findSlot linearly probes from the line's home slot, returning the
// slot holding the line's entry, or the first empty slot (entry nil)
// where it would be inserted. The table is never full, so the probe
// always terminates.
func (m *MSHR) findSlot(line Addr) (int, *MSHREntry) {
	i := m.home(line)
	for {
		e := m.slots[i]
		if e == nil || e.Line == line {
			return i, e
		}
		i = (i + 1) & m.mask
	}
}

// removeSlot vacates slot i and backward-shifts the probe chain so no
// entry is stranded behind an empty slot (tombstone-free deletion).
func (m *MSHR) removeSlot(i int) {
	m.slots[i] = nil
	j := i
	for {
		j = (j + 1) & m.mask
		e := m.slots[j]
		if e == nil {
			return
		}
		// Shift e into the hole iff the hole lies on its probe path,
		// i.e. its home precedes the hole cyclically.
		h := m.home(e.Line)
		if (j-h)&m.mask >= (j-i)&m.mask {
			m.slots[i] = e
			m.slots[j] = nil
			i = j
		}
	}
}

// Find probes the table once for line's entry. It returns the entry,
// or nil and the vacant slot where Insert would place the line. The
// slot stays valid until the table next changes (Insert, Fill, Reset),
// so a caller decides between Merge and Insert on one probe.
func (m *MSHR) Find(line Addr) (slot int, e *MSHREntry) {
	return m.findSlot(line.LineAddr())
}

// Merge appends req to the in-flight entry e. It reports false, and
// changes nothing, when e already holds its maximum of merged requests.
func (m *MSHR) Merge(e *MSHREntry, req Request) bool {
	if len(e.Merged) >= m.maxMergedPer {
		return false
	}
	e.Merged = append(e.Merged, req)
	m.mergeCount++
	return true
}

// Insert allocates the entry for req's line at slot, which Find
// returned for that line with no entry. It returns nil, and changes
// nothing, when every entry is in use.
func (m *MSHR) Insert(slot int, req Request) *MSHREntry {
	if m.live >= m.capacity {
		return nil
	}
	e := m.free[len(m.free)-1]
	m.free = m.free[:len(m.free)-1]
	e.Line, e.Merged, e.SharedValid = req.Addr.LineAddr(), append(e.Merged[:0], req), false
	m.slots[slot] = e
	m.live++
	m.allocations++
	return e
}

// NoteStalls records n cycles on which a request could not be accepted
// (structural hazard), for statistics.
func (m *MSHR) NoteStalls(n uint64) { m.stalls += n }

// Fill completes the miss for line, removes its entry and returns it.
// Fill returns nil if the line has no outstanding entry. The returned
// entry's storage is recycled: its contents (notably Merged) are valid
// only until the next Insert call.
func (m *MSHR) Fill(line Addr) *MSHREntry {
	line = line.LineAddr()
	i, e := m.findSlot(line)
	if e == nil {
		return nil
	}
	m.removeSlot(i)
	m.live--
	m.free = append(m.free, e)
	return e
}

// Outstanding reports the number of live entries.
func (m *MSHR) Outstanding() int { return m.live }

// Capacity reports the maximum number of entries.
func (m *MSHR) Capacity() int { return m.capacity }

// Stats reports cumulative allocation, merge and structural-stall
// counts, for tests until results carry them.
func (m *MSHR) Stats() (allocations, merges, stalls uint64) {
	return m.allocations, m.mergeCount, m.stalls
}
