package memory

import (
	"testing"
	"testing/quick"
)

// add records req the way the SM does: one Find, then Merge into the
// line's entry or Insert at the returned slot. ok is false, with the
// table unchanged, when the entry's merge list is full or no entry is
// free.
func add(m *MSHR, req Request) (e *MSHREntry, merged, ok bool) {
	slot, e := m.Find(req.Addr)
	if e != nil {
		return e, true, m.Merge(e, req)
	}
	e = m.Insert(slot, req)
	return e, false, e != nil
}

func TestMSHRInsertAndMerge(t *testing.T) {
	m := NewMSHR(4, 2)
	r1 := Request{Addr: 0x1000, WarpID: 1}
	r2 := Request{Addr: 0x1040, WarpID: 2} // same 128B line
	r3 := Request{Addr: 0x2000, WarpID: 3} // different line

	e1, merged, ok := add(m, r1)
	if !ok || merged {
		t.Fatal("first request did not insert a fresh entry")
	}
	if e1.Line != 0x1000 {
		t.Fatalf("entry line = %s, want 0x1000", e1.Line)
	}
	e2, merged, ok := add(m, r2)
	if !ok || !merged || e2 != e1 {
		t.Fatal("same-line request should merge into the existing entry")
	}
	if len(e1.Merged) != 2 {
		t.Fatalf("merged count = %d, want 2", len(e1.Merged))
	}
	if _, merged, _ := add(m, r3); merged {
		t.Fatal("distinct line should not merge")
	}
	if m.Outstanding() != 2 {
		t.Fatalf("outstanding = %d, want 2", m.Outstanding())
	}
}

func TestMSHRMergeAndEntryLimits(t *testing.T) {
	m := NewMSHR(1, 2)
	add(m, Request{Addr: 0x1000})
	slot, e := m.Find(0x3000)
	if e != nil {
		t.Fatal("Find returned an entry for an absent line")
	}
	if m.Insert(slot, Request{Addr: 0x3000}) != nil {
		t.Error("full MSHR should reject new lines")
	}
	if _, e := m.Find(0x3000); e != nil || m.Outstanding() != 1 {
		t.Error("a rejected Insert changed the table")
	}
	_, e = m.Find(0x1010)
	if e == nil {
		t.Fatal("Find missed the in-flight line")
	}
	if !m.Merge(e, Request{Addr: 0x1010}) {
		t.Error("same-line merge should be allowed below merge cap")
	}
	if m.Merge(e, Request{Addr: 0x1020}) {
		t.Error("merge cap reached; should reject")
	}
	if len(e.Merged) != 2 {
		t.Errorf("a rejected Merge changed the entry: %d merged, want 2", len(e.Merged))
	}
}

func TestMSHRFill(t *testing.T) {
	m := NewMSHR(4, 8)
	add(m, Request{Addr: 0x1000, WarpID: 7})
	add(m, Request{Addr: 0x1040, WarpID: 9})

	e := m.Fill(0x1008) // any address within the line
	if e == nil {
		t.Fatal("fill returned nil for outstanding line")
	}
	if len(e.Merged) != 2 {
		t.Fatalf("fill returned %d merged requests, want 2", len(e.Merged))
	}
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding after fill = %d, want 0", m.Outstanding())
	}
	if m.Fill(0x1000) != nil {
		t.Error("double fill should return nil")
	}
}

func TestMSHRSharedAddrExtension(t *testing.T) {
	m := NewMSHR(2, 2)
	e, _, _ := add(m, Request{Addr: 0x8000})
	e.SharedValid = true
	got := m.Fill(0x8000)
	if !got.SharedValid {
		t.Error("CIAO shared-address extension not preserved across fill")
	}
}

func TestMSHRStats(t *testing.T) {
	m := NewMSHR(2, 2)
	add(m, Request{Addr: 0x0})
	add(m, Request{Addr: 0x10})
	m.NoteStalls(1)
	m.NoteStalls(3)
	alloc, merges, stalls := m.Stats()
	if alloc != 1 || merges != 1 || stalls != 4 {
		t.Errorf("stats = (%d,%d,%d), want (1,1,4)", alloc, merges, stalls)
	}
}

// Property: after any sequence of accepted requests, every line has
// exactly one entry containing all its requests, and Outstanding never
// exceeds capacity.
func TestMSHRInvariant(t *testing.T) {
	f := func(lines []uint8) bool {
		m := NewMSHR(64, 64)
		perLine := map[Addr]int{}
		for i, l := range lines {
			a := Addr(l) * LineSize
			if _, _, ok := add(m, Request{Addr: a, WarpID: i}); !ok {
				continue
			}
			perLine[a]++
		}
		if m.Outstanding() != len(perLine) {
			return false
		}
		for a, n := range perLine {
			_, e := m.Find(a)
			if e == nil || len(e.Merged) != n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: interleaved inserts, merges and fills keep the
// open-addressed probe table consistent — backward-shift deletion must
// never strand a colliding entry behind a vacated slot.
func TestMSHRChurnInvariant(t *testing.T) {
	f := func(ops []uint16) bool {
		m := NewMSHR(16, 4)
		want := map[Addr][]int{}
		for i, op := range ops {
			// Squeeze lines into 32 values so collisions and probe
			// chains are common in the 32-slot table.
			a := Addr(op%32) * LineSize
			if op&0x8000 != 0 {
				e := m.Fill(a)
				if _, live := want[a]; live {
					if e == nil || e.Line != a || len(e.Merged) != len(want[a]) {
						return false
					}
					delete(want, a)
				} else if e != nil {
					return false
				}
				continue
			}
			if _, _, ok := add(m, Request{Addr: a, WarpID: i}); !ok {
				continue
			}
			want[a] = append(want[a], i)
		}
		if m.Outstanding() != len(want) {
			return false
		}
		for a, ids := range want {
			_, e := m.Find(a)
			if e == nil || len(e.Merged) != len(ids) {
				return false
			}
			for j, id := range ids {
				if e.Merged[j].WarpID != id {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
