package cache

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

// l1Config returns the Table I L1D configuration: 16KB, 4-way, 128B
// lines → 32 sets.
func l1Config() Config {
	return Config{Name: "L1D", SizeBytes: 16 << 10, Ways: 4, Write: WriteThroughNoAllocate, HitLatency: 1}
}

func TestConfigSets(t *testing.T) {
	if got := l1Config().Sets(); got != 32 {
		t.Fatalf("L1D sets = %d, want 32", got)
	}
	l2 := Config{Name: "L2", SizeBytes: 768 << 10, Ways: 8}
	if got := l2.Sets(); got != 768 {
		t.Fatalf("L2 sets = %d, want 768", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := l1Config()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := Config{Name: "bad", SizeBytes: 1000, Ways: 3}
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid geometry accepted")
	}
	// 768KB 8-way yields 768 sets — not a power of two, must be caught.
	l2 := Config{Name: "L2", SizeBytes: 768 << 10, Ways: 8}
	if err := l2.Validate(); err == nil {
		t.Fatal("non-power-of-two set count accepted")
	}
}

func TestMissThenFillThenHit(t *testing.T) {
	c := New(l1Config())
	const wid = 3
	if c.Access(0x1000, wid, 1, false) {
		t.Fatal("cold access hit")
	}
	if _, ev := c.Fill(0x1000, wid, 2); ev {
		t.Fatal("fill into empty set evicted")
	}
	if !c.Access(0x1000, wid, 3, false) {
		t.Fatal("access after fill missed")
	}
	if !c.Access(0x107f, wid, 4, false) {
		t.Fatal("same-line access missed")
	}
	if c.Access(0x1080, wid, 5, false) {
		t.Fatal("adjacent line hit spuriously")
	}
}

func TestLRUEvictionRecordsOwnerAndEvictor(t *testing.T) {
	cfg := l1Config()
	c := New(cfg)
	sets := uint64(cfg.Sets())
	// Fill all 4 ways of set 0 by warp 0..3 (modulo indexing).
	for w := 0; w < 4; w++ {
		a := memory.Addr(uint64(w) * sets * memory.LineSize)
		c.Fill(a, w, uint64(w+1))
	}
	// Touch way 0 so way for warp 1 becomes LRU.
	c.Access(0, 0, 10, false)
	// Fifth line in the same set must evict warp 1's line.
	a5 := memory.Addr(4 * sets * memory.LineSize)
	ev, evicted := c.Fill(a5, 9, 11)
	if !evicted {
		t.Fatal("full set fill did not evict")
	}
	if ev.OwnerWID != 1 {
		t.Errorf("evicted owner = %d, want 1 (LRU)", ev.OwnerWID)
	}
	if ev.Evictor != 9 {
		t.Errorf("evictor = %d, want 9", ev.Evictor)
	}
	if ev.Line != memory.Addr(1*sets*memory.LineSize) {
		t.Errorf("evicted line = %s", ev.Line)
	}
}

func TestFillExistingLineRefreshes(t *testing.T) {
	c := New(l1Config())
	c.Fill(0x40, 1, 1)
	if _, ev := c.Fill(0x40, 2, 2); ev {
		t.Fatal("refill of present line evicted")
	}
	if occupiedLines(c) != 1 {
		t.Fatalf("occupied = %d, want 1", occupiedLines(c))
	}
}

func TestWritePolicies(t *testing.T) {
	wt := New(l1Config())
	wt.Fill(0x80, 0, 1)
	wt.Access(0x80, 0, 2, true) // write hit under write-through
	_, dirty := wt.Invalidate(0x80)
	if dirty {
		t.Error("write-through line marked dirty")
	}

	wb := New(Config{Name: "wb", SizeBytes: 16 << 10, Ways: 4, Write: WriteBackAllocate})
	wb.Fill(0x80, 0, 1)
	wb.Access(0x80, 0, 2, true)
	_, dirty = wb.Invalidate(0x80)
	if !dirty {
		t.Error("write-back write hit did not mark dirty")
	}
}

func TestInvalidate(t *testing.T) {
	c := New(l1Config())
	c.Fill(0x3000, 5, 1)
	present, _ := c.Invalidate(0x3000)
	if !present {
		t.Fatal("invalidate missed present line")
	}
	if c.Probe(0x3000) {
		t.Fatal("line still present after invalidate")
	}
	if present, _ := c.Invalidate(0x3000); present {
		t.Fatal("double invalidate reported present")
	}
}

func TestOwner(t *testing.T) {
	c := New(l1Config())
	c.Fill(0x5000, 7, 1)
	wid, ok := owner(c, 0x5040)
	if !ok || wid != 7 {
		t.Fatalf("Owner = (%d,%v), want (7,true)", wid, ok)
	}
	if _, ok := owner(c, 0x9000); ok {
		t.Fatal("Owner reported for absent line")
	}
}

// owner returns the WID that filled the line, if present.
func owner(c *Cache, addr memory.Addr) (wid int, ok bool) {
	if i := c.find(c.locate(addr)); i >= 0 {
		return int(c.owner[i]), true
	}
	return 0, false
}

// flush invalidates every line and returns how many were dirty.
func flush(c *Cache) (dirtyLines int) {
	for i, t := range c.tags {
		if t != 0 && c.dirty[i] {
			dirtyLines++
		}
		c.clear(i)
	}
	return dirtyLines
}

// occupiedLines reports how many lines are valid.
func occupiedLines(c *Cache) int {
	n := 0
	for _, t := range c.tags {
		if t != 0 {
			n++
		}
	}
	return n
}

func TestStatsAndHitRate(t *testing.T) {
	c := New(l1Config())
	c.Access(0x0, 0, 1, false) // miss
	c.Fill(0x0, 0, 2)
	c.Access(0x0, 0, 3, false) // hit
	c.Access(0x0, 0, 4, false) // hit
	s := c.Stats()
	if s.Accesses != 3 || s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if hr := s.HitRate(); hr < 0.66 || hr > 0.67 {
		t.Fatalf("hit rate = %f, want 2/3", hr)
	}
}

func TestFlush(t *testing.T) {
	c := New(Config{Name: "wb", SizeBytes: 16 << 10, Ways: 4, Write: WriteBackAllocate})
	c.Fill(0x0, 0, 1)
	c.Fill(0x80, 0, 1)
	c.Access(0x0, 0, 2, true) // dirty one line
	if d := flush(c); d != 1 {
		t.Fatalf("flush dirty count = %d, want 1", d)
	}
	if occupiedLines(c) != 0 {
		t.Fatal("flush left lines valid")
	}
}

// Property: occupancy never exceeds capacity and a filled line is
// always observable until evicted or invalidated.
func TestCacheOccupancyInvariant(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(l1Config())
		capacity := l1Config().Sets() * l1Config().Ways
		for i, a := range addrs {
			addr := memory.Addr(a) * memory.LineSize
			if !c.Access(addr, i%48, uint64(i), false) {
				c.Fill(addr, i%48, uint64(i))
			}
			if !c.Probe(addr) {
				return false // just-filled or hit line must be present
			}
			if occupiedLines(c) > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestXORHashConfigChangesMapping(t *testing.T) {
	plain := New(l1Config())
	xcfg := l1Config()
	xcfg.UseXORHash = true
	xor := New(xcfg)

	// Power-of-two stride of Sets*LineSize thrashes a single set under
	// modulo but spreads under XOR: fill 8 such lines with 4 ways and
	// count how many remain resident.
	stride := uint64(l1Config().Sets()) * memory.LineSize
	for i := uint64(0); i < 8; i++ {
		a := memory.Addr(i * stride)
		plain.Fill(a, 0, i)
		xor.Fill(a, 0, i)
	}
	if occupiedLines(plain) != 4 {
		t.Errorf("modulo-indexed resident lines = %d, want 4 (one set)", occupiedLines(plain))
	}
	if occupiedLines(xor) <= 4 {
		t.Errorf("XOR-indexed resident lines = %d, want > 4", occupiedLines(xor))
	}
}

// TestSetIndex checks set-index hashing: modulo and XOR indexing stay
// in range and depend only on the line, XOR spreads the power-of-two
// stride that modulo maps to one set, the prefix fold equals the
// group-XOR loop it replaced, and a one-set cache maps everything to
// set 0 under either scheme.
func TestSetIndex(t *testing.T) {
	withSets := func(sets int, xor bool) *Cache {
		return New(Config{Name: "idx", SizeBytes: sets * 4 * memory.LineSize, Ways: 4, UseXORHash: xor})
	}
	t.Run("modulo_range", func(t *testing.T) {
		m := withSets(32, false)
		for a := memory.Addr(0); a < 64*memory.LineSize; a += memory.LineSize {
			if s := m.setIndex(a); s < 0 || s >= 32 {
				t.Fatalf("setIndex(%s) = %d out of range", a, s)
			}
		}
		// Consecutive lines map to consecutive sets.
		if m.setIndex(0) != 0 || m.setIndex(memory.LineSize) != 1 {
			t.Errorf("modulo indexing wrong: set(0)=%d set(128)=%d", m.setIndex(0), m.setIndex(memory.LineSize))
		}
		// Wraps at Sets lines.
		if s := m.setIndex(32 * memory.LineSize); s != 0 {
			t.Errorf("expected wrap to set 0, got %d", s)
		}
	})
	t.Run("xor_range", func(t *testing.T) {
		x := withSets(32, true)
		f := func(a uint64) bool { s := x.setIndex(memory.Addr(a)); return s >= 0 && s < 32 }
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("xor_pure", func(t *testing.T) {
		x := withSets(64, true)
		f := func(a uint64, off uint8) bool {
			line := memory.Addr(a).LineAddr()
			return x.setIndex(line) == x.setIndex(line) &&
				x.setIndex(line) == x.setIndex(line+memory.Addr(off%memory.LineSize))
		}
		if err := quick.Check(f, nil); err != nil {
			t.Error(err)
		}
	})
	t.Run("xor_spreads_power_of_two_strides", func(t *testing.T) {
		const sets = 32
		mod, xor := withSets(sets, false), withSets(sets, true)
		stride := memory.Addr(sets * memory.LineSize)
		modSets, xorSets := map[int]bool{}, map[int]bool{}
		for i := 0; i < 64; i++ {
			a := memory.Addr(i) * stride
			modSets[mod.setIndex(a)] = true
			xorSets[xor.setIndex(a)] = true
		}
		if len(modSets) != 1 {
			t.Fatalf("modulo should conflict on power-of-two stride, got %d sets", len(modSets))
		}
		if len(xorSets) < sets/2 {
			t.Errorf("XOR hashing spread only %d/%d sets for power-of-two stride", len(xorSets), sets)
		}
	})
	t.Run("rejects_non_power_of_two", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for non-power-of-two set count")
			}
		}()
		withSets(48, true)
	})
	t.Run("xor_equals_group_fold", func(t *testing.T) {
		for bits := uint64(1); bits <= 7; bits++ {
			x := withSets(1<<bits, true)
			f := func(a uint64) bool {
				return uint64(x.setIndex(memory.Addr(a))) == refSetIndex(memory.Addr(a), 1<<bits, bits, true)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Errorf("%d sets: %v", 1<<bits, err)
			}
		}
	})
	t.Run("one_set", func(t *testing.T) {
		for _, xor := range []bool{false, true} {
			c := New(Config{Name: "one", SizeBytes: 1 << 10, Ways: 8, UseXORHash: xor})
			f := func(a uint64) bool { return c.setIndex(memory.Addr(a)) == 0 }
			if err := quick.Check(f, nil); err != nil {
				t.Errorf("xor=%v: %v", xor, err)
			}
		}
	})
}
