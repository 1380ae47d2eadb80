package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

func newTestVTA() *VTA { return NewVTA(48, 8) } // Table I geometry

func TestVTAInsertProbe(t *testing.T) {
	v := newTestVTA()
	v.Insert(3, 0x1000, 7)

	hit, evictor := v.Probe(3, 0x1040) // same line
	if !hit || evictor != 7 {
		t.Fatalf("probe = (%v,%d), want (true,7)", hit, evictor)
	}
	// Entry consumed on hit.
	if hit, _ := v.Probe(3, 0x1000); hit {
		t.Fatal("probe hit a consumed entry")
	}
}

func TestVTAPerWarpIsolation(t *testing.T) {
	v := newTestVTA()
	v.Insert(3, 0x1000, 7)
	if hit, _ := v.Probe(4, 0x1000); hit {
		t.Fatal("warp 4 hit warp 3's VTA set")
	}
}

func TestVTAFIFOReplacement(t *testing.T) {
	v := NewVTA(2, 2)
	v.Insert(0, 0x000, 1)
	v.Insert(0, 0x080, 2)
	v.Insert(0, 0x100, 3) // displaces 0x000 (oldest)

	if hit, _ := v.Probe(0, 0x000); hit {
		t.Fatal("oldest entry not displaced by FIFO")
	}
	if hit, _ := v.Probe(0, 0x080); !hit {
		t.Fatal("second entry should survive")
	}
	if hit, _ := v.Probe(0, 0x100); !hit {
		t.Fatal("newest entry should survive")
	}
}

func TestVTAOutOfRangeWarpIsIgnored(t *testing.T) {
	v := newTestVTA()
	v.Insert(-1, 0x0, 0)
	v.Insert(48, 0x0, 0)
	if hit, _ := v.Probe(-1, 0x0); hit {
		t.Fatal("out-of-range probe hit")
	}
	if hit, _ := v.Probe(48, 0x0); hit {
		t.Fatal("out-of-range probe hit")
	}
}

func TestVTAGeometryAccessors(t *testing.T) {
	v := newTestVTA()
	if len(v.sets) != 48 || v.tagsPerSet != 8 {
		t.Fatalf("geometry = (%d,%d), want (48,8)", len(v.sets), v.tagsPerSet)
	}
}

// Property: an insert for warp w is observable by w (until displaced by
// tagsPerSet further inserts) and never observable by any other warp.
func TestVTAIsolationInvariant(t *testing.T) {
	f := func(owner uint8, line uint16, evictor uint8) bool {
		v := newTestVTA()
		w := int(owner) % 48
		v.Insert(w, memory.Addr(line)*memory.LineSize, int(evictor))
		hit, got := v.Probe(w, memory.Addr(line)*memory.LineSize)
		if !hit || got != int(evictor) {
			return false
		}
		// No cross-warp visibility.
		other := (w + 1) % 48
		hit, _ = v.Probe(other, memory.Addr(line)*memory.LineSize)
		return !hit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
