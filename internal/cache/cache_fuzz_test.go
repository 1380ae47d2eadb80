package cache

import (
	"math/rand"
	"testing"

	"repro/internal/memory"
)

// refCache is the set-associative cache as it was before the
// packed-tag rewrite, kept as the reference model FuzzCache checks
// Cache against: one []refLine per set, early-exit tag scans, and the
// group-XOR set index loop. That loop never ends for a one-set XOR
// cache (it shifts by zero bits), so the reference must not be built
// with that geometry.
type refCache struct {
	cfg   Config
	sets  [][]refLine
	nsets uint64
	bits  uint64 // log2(nsets)
	stats Stats
}

type refLine struct {
	valid   bool
	dirty   bool
	addr    memory.Addr
	ownerW  int
	lastUse uint64
}

func newRefCache(cfg Config) *refCache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	n := cfg.Sets()
	c := &refCache{cfg: cfg, sets: make([][]refLine, n), nsets: uint64(n)}
	for v := n; v > 1; v >>= 1 {
		c.bits++
	}
	for i := range c.sets {
		c.sets[i] = make([]refLine, cfg.Ways)
	}
	return c
}

// refSetIndex is the reference set index: modulo, or the XOR of every
// bits-wide group of the line number.
func refSetIndex(a memory.Addr, nsets, bits uint64, xor bool) uint64 {
	line, mask := a.LineIndex(), nsets-1
	if !xor {
		return line & mask
	}
	idx := uint64(0)
	for line != 0 {
		idx ^= line & mask
		line >>= bits
	}
	return idx
}

func (c *refCache) set(a memory.Addr) []refLine {
	return c.sets[refSetIndex(a, c.nsets, c.bits, c.cfg.UseXORHash)]
}

func (c *refCache) Probe(addr memory.Addr) bool {
	la := addr.LineAddr()
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].addr == la {
			return true
		}
	}
	return false
}

func (c *refCache) Access(addr memory.Addr, wid int, now uint64, isWrite bool) bool {
	la := addr.LineAddr()
	set := c.set(la)
	c.stats.Accesses++
	for i := range set {
		if set[i].valid && set[i].addr == la {
			set[i].lastUse = now
			if isWrite {
				c.stats.WriteHits++
				if c.cfg.Write == WriteBackAllocate {
					set[i].dirty = true
				}
			}
			c.stats.Hits++
			return true
		}
	}
	c.stats.Misses++
	if isWrite {
		c.stats.WriteMiss++
	}
	return false
}

func (c *refCache) Fill(addr memory.Addr, wid int, now uint64) (ev Eviction, evicted bool) {
	la := addr.LineAddr()
	set := c.set(la)
	c.stats.Fills++
	for i := range set {
		if set[i].valid && set[i].addr == la {
			set[i].lastUse = now
			return Eviction{}, false
		}
	}
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim == -1 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lastUse < set[victim].lastUse {
				victim = i
			}
		}
		ev = Eviction{Line: set[victim].addr, OwnerWID: set[victim].ownerW, Evictor: wid, Dirty: set[victim].dirty}
		evicted = true
		c.stats.Evictions++
	}
	set[victim] = refLine{valid: true, addr: la, ownerW: wid, lastUse: now}
	return ev, evicted
}

func (c *refCache) Invalidate(addr memory.Addr) (present, dirty bool) {
	la := addr.LineAddr()
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].addr == la {
			present, dirty = true, set[i].dirty
			set[i] = refLine{}
			c.stats.Invalidates++
			return present, dirty
		}
	}
	return false, false
}

func (c *refCache) Owner(addr memory.Addr) (int, bool) {
	la := addr.LineAddr()
	set := c.set(la)
	for i := range set {
		if set[i].valid && set[i].addr == la {
			return set[i].ownerW, true
		}
	}
	return 0, false
}

func (c *refCache) occupancy() (lines, dirty int) {
	for _, set := range c.sets {
		for _, l := range set {
			if l.valid {
				lines++
				if l.dirty {
					dirty++
				}
			}
		}
	}
	return lines, dirty
}

// fuzzGeometry decodes a geometry byte: bits 0-2 give 1 to 128 sets,
// bit 3 XOR indexing, bits 4-6 one to eight ways, and bit 7 the L2's
// write-back policy (else the L1D's write-through). XOR indexing at
// one set is left out, as the reference cannot run it.
func fuzzGeometry(g uint8) Config {
	sets := 1 << (g & 7)
	ways := 1 + int(g>>4&7)
	cfg := Config{Name: "fuzz", SizeBytes: sets * ways * memory.LineSize, Ways: ways,
		UseXORHash: g&8 != 0 && sets > 1, HitLatency: 1}
	if g&0x80 != 0 {
		cfg.Write = WriteBackAllocate
	}
	return cfg
}

// fuzzLines returns 16 line addresses that collide often: six on a
// power-of-two stride (one set under modulo indexing), six whose
// index-width bit groups cancel (set 0 under XOR indexing) and four
// random 64-bit addresses that exercise the high bits of the fold.
func fuzzLines(cfg Config, seed uint64) [16]memory.Addr {
	sets := uint64(cfg.Sets())
	bits := uint64(0)
	for v := sets; v > 1; v >>= 1 {
		bits++
	}
	r := rand.New(rand.NewSource(int64(seed)))
	var lines [16]memory.Addr
	for k := uint64(0); k < 6; k++ {
		lines[k] = memory.Addr((k*sets + seed%sets) << memory.LineShift)
		lines[6+k] = memory.Addr((k | k<<bits | seed<<(3*bits+8)) << memory.LineShift)
	}
	for k := 12; k < 16; k++ {
		lines[k] = memory.Addr(r.Uint64())
	}
	return lines
}

// FuzzCache drives Cache and the reference cache with the same
// Access/Fill/Probe/Invalidate/Owner sequence and requires identical
// answers (hits, evictions with line, owner and dirty bit, owners) and
// identical Stats after every op, then equal occupancy and Flush
// counts. The L2's fused path, AccessSet and on a miss FillMiss and
// (for a store) WriteHit on the returned Set, must match the
// reference's Access, Fill and Access. Each op is two bytes: the first
// picks the op and the warp, the second the line, a byte offset within
// it and how far the clock moves (often not at all, so LRU ties are
// common).
func FuzzCache(f *testing.F) {
	geoms := []uint8{
		0x00,                // one set, one way, modulo
		5 | 8 | 3<<4,        // the L1D: 32 sets, XOR, 4 ways, write-through
		7 | 8 | 7<<4 | 0x80, // an L2 slice: 128 sets, XOR, 8 ways, write-back
		7 | 7<<4 | 0x80,     // the same slice with modulo indexing
		1 | 8 | 1<<4 | 0x80, // XOR at two sets
		2 | 8 | 7<<4,        // XOR at four sets, eight ways
		3 | 2<<4 | 0x80,     // modulo, three ways (not a power of two)
		0 | 8 | 3<<4,        // XOR asked for at one set: modulo
		6 | 8 | 0<<4 | 0x80, // direct-mapped XOR
		4 | 5<<4,            // modulo, six ways
	}
	for i, g := range geoms {
		r := rand.New(rand.NewSource(int64(i)))
		ops := make([]byte, 600)
		r.Read(ops)
		f.Add(g, uint64(i)*0x9E3779B97F4A7C15, ops)
	}
	f.Fuzz(func(t *testing.T, geom uint8, seed uint64, ops []byte) {
		cfg := fuzzGeometry(geom)
		c, ref := New(cfg), newRefCache(cfg)
		lines := fuzzLines(cfg, seed)
		now := uint64(0)
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			wid := int(op >> 3)
			addr := lines[arg&15] + memory.Addr(arg>>6)*37
			now += uint64(arg >> 4 & 3)
			switch op & 7 {
			case 0, 2:
				write := op&7 == 2
				if got, want := c.Access(addr, wid, now, write), ref.Access(addr, wid, now, write); got != want {
					t.Fatalf("op %d: Access(%s, write=%v) = %v, reference %v", i/2, addr, write, got, want)
				}
			case 1:
				// The warp's low bit picks a store; the fill lands a few
				// cycles later, as an L2 fill does after DRAM.
				write, fillAt := wid&1 == 1, now+uint64(wid>>1&3)
				hit, set := c.AccessSet(addr, now, write)
				if want := ref.Access(addr, wid, now, write); hit != want {
					t.Fatalf("op %d: AccessSet(%s, write=%v) = %v, reference %v", i/2, addr, write, hit, want)
				}
				if !hit {
					ev, evicted := c.FillMiss(&set, wid, fillAt)
					wantEv, wantEvicted := ref.Fill(addr, wid, fillAt)
					if ev != wantEv || evicted != wantEvicted {
						t.Fatalf("op %d: FillMiss(%s) = %+v,%v, reference %+v,%v", i/2, addr, ev, evicted, wantEv, wantEvicted)
					}
					if write {
						c.WriteHit(set, fillAt)
						ref.Access(addr, wid, fillAt, true)
					}
				}
			case 3, 4:
				ev, evicted := c.Fill(addr, wid, now)
				wantEv, wantEvicted := ref.Fill(addr, wid, now)
				if ev != wantEv || evicted != wantEvicted {
					t.Fatalf("op %d: Fill(%s) = %+v,%v, reference %+v,%v", i/2, addr, ev, evicted, wantEv, wantEvicted)
				}
			case 5:
				if got, want := c.Probe(addr), ref.Probe(addr); got != want {
					t.Fatalf("op %d: Probe(%s) = %v, reference %v", i/2, addr, got, want)
				}
			case 6:
				p, d := c.Invalidate(addr)
				wp, wd := ref.Invalidate(addr)
				if p != wp || d != wd {
					t.Fatalf("op %d: Invalidate(%s) = %v,%v, reference %v,%v", i/2, addr, p, d, wp, wd)
				}
			case 7:
				w, ok := owner(c, addr)
				ww, wok := ref.Owner(addr)
				if w != ww || ok != wok {
					t.Fatalf("op %d: Owner(%s) = %d,%v, reference %d,%v", i/2, addr, w, ok, ww, wok)
				}
			}
			if c.Stats() != ref.stats {
				t.Fatalf("op %d: Stats = %+v, reference %+v", i/2, c.Stats(), ref.stats)
			}
		}
		occupied, dirty := ref.occupancy()
		if got := occupiedLines(c); got != occupied {
			t.Fatalf("OccupiedLines = %d, reference %d", got, occupied)
		}
		if got := flush(c); got != dirty {
			t.Fatalf("Flush = %d dirty lines, reference %d", got, dirty)
		}
	})
}
