package l2

import (
	"testing"

	"repro/internal/memory"
)

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// 768KB / 6 partitions / 8 ways / 128B = 128 sets per slice.
	cfg := DefaultConfig()
	per := cfg.TotalBytes / cfg.Partitions / cfg.Ways / memory.LineSize
	if per != 128 {
		t.Fatalf("sets per slice = %d, want 128", per)
	}
}

// access performs one L2 access and reports, from the Stats delta,
// whether it counted as a hit.
func access(l *L2, now uint64, addr memory.Addr, wid int, isWrite bool) (done uint64, hit bool) {
	before := l.Stats().Hits
	done = l.Access(now, addr, wid, isWrite)
	return done, l.Stats().Hits > before
}

func TestMissThenHit(t *testing.T) {
	l := New(DefaultConfig())
	done1, hit1 := access(l, 0, 0x10000, 0, false)
	if hit1 {
		t.Fatal("cold access counted as an L2 hit, want a miss")
	}
	if done1 <= uint64(l.cfg.Latency) {
		t.Fatalf("miss done = %d, too fast", done1)
	}
	done2, hit2 := access(l, done1, 0x10000, 0, false)
	if !hit2 {
		t.Fatal("second access counted as a miss, want an L2 hit")
	}
	wantDone := done1 + uint64(l.cfg.Latency) + uint64(l.cfg.ServiceCycles)
	if done2 != wantDone {
		t.Fatalf("hit done = %d, want %d", done2, wantDone)
	}
}

func TestPartitionInterleaving(t *testing.T) {
	l := New(DefaultConfig())
	seen := map[int]bool{}
	for i := 0; i < l.cfg.Partitions; i++ {
		a := memory.Addr(i) * memory.LineSize
		for j, s := range l.slices {
			if s == l.slice(a) {
				seen[j] = true
			}
		}
	}
	if len(seen) != l.cfg.Partitions {
		t.Fatalf("%d consecutive lines hit %d partitions, want %d",
			l.cfg.Partitions, len(seen), l.cfg.Partitions)
	}
}

func TestWriteAllocateNoFetch(t *testing.T) {
	l := New(DefaultConfig())
	// A cold coalesced store installs the full line directly without a
	// DRAM fetch (fetch-on-write elision), completing at L2 speed.
	done, hit := access(l, 0, 0x4000, 1, true)
	if hit {
		t.Fatal("cold write counted as an L2 hit, want a miss served without a fetch")
	}
	if reads := l.DRAM().Stats().Reads; reads != 0 {
		t.Fatalf("cold write fetched %d lines from DRAM", reads)
	}
	// The slice's internal install touch is not an SM access: the write
	// counts once, as a miss.
	if s := l.Stats(); s.Accesses != s.Hits+s.Misses || s.Misses != 1 {
		t.Fatalf("stats after cold write = %+v, want Accesses == Hits+Misses with 1 miss", s)
	}
	// Line must now be resident (write-allocate).
	if _, hit = access(l, done, 0x4000, 1, false); !hit {
		t.Fatal("read after write-allocate missed, want an L2 hit")
	}
	// The line is dirty, so its eventual eviction performs the
	// write-back.
	if _, dirty := l.slice(0x4000).Invalidate(0x4000); !dirty {
		t.Fatal("line written by the store is clean")
	}
}

func TestBypassSkipsL2Tags(t *testing.T) {
	l := New(DefaultConfig())
	done := l.Bypass(0, 0x8000, false)
	if done == 0 {
		t.Fatal("bypass returned zero completion")
	}
	if l.Stats().Accesses != 0 {
		t.Fatal("bypass touched L2 stats")
	}
	// The line must NOT be resident after a bypass.
	if _, hit := access(l, done, 0x8000, 0, false); hit {
		t.Fatal("bypassed line resident in L2")
	}
}

func TestStatsAndHitRate(t *testing.T) {
	l := New(DefaultConfig())
	l.Access(0, 0x0, 0, false)
	l.Access(1000, 0x0, 0, false)
	s := l.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if hr := s.HitRate(); hr != 0.5 {
		t.Fatalf("hit rate = %f, want 0.5", hr)
	}
}

func TestValidateRejectsBadPartitioning(t *testing.T) {
	for _, c := range []struct {
		what string
		edit func(*Config)
	}{
		{"indivisible partitioning", func(c *Config) { c.Partitions = 7 }}, // 768KB/7 is not an integer
		{"zero partitions", func(c *Config) { c.Partitions = 0 }},
		{"zero service cycles", func(c *Config) { c.ServiceCycles = 0 }},
		{"negative service cycles", func(c *Config) { c.ServiceCycles = -1 }},
		{"negative latency", func(c *Config) { c.Latency = -1 }},
	} {
		cfg := DefaultConfig()
		c.edit(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
}

func TestL2MissLatencyExceedsHitLatency(t *testing.T) {
	l := New(DefaultConfig())
	missDone := l.Access(0, 0x100000, 0, false)
	hitDone := l.Access(0, 0x100000, 0, false) // now resident
	missLat := missDone
	hitLat := hitDone
	if hitLat >= missLat {
		t.Fatalf("hit latency %d not below miss latency %d", hitLat, missLat)
	}
}
