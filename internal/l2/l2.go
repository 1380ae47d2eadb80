// Package l2 models the 768KB shared L2 cache of Table I (8-way,
// write-allocate, write-back, LRU, 128B lines) backed by the GDDR5
// model. Like the real GTX480, the L2 is split into partitions — six
// 128KB slices, one per memory channel — so that each partition has a
// power-of-two set count; lines interleave across partitions.
//
// The package exposes a latency-oracle interface: Access(now, addr)
// returns the completion cycle, advancing partition pipeline and DRAM
// state. This is the contract the SM model builds its fill events on.
package l2

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/memory"
)

// Config shapes the L2 and its backing DRAM.
type Config struct {
	// TotalBytes is the aggregate capacity (Table I: 768KB).
	TotalBytes int
	// Partitions is the number of slices (GTX480: 6 channels).
	Partitions int
	// Ways is the associativity (Table I: 8).
	Ways int
	// Latency is the interconnect + pipeline latency from L1 miss to
	// L2 lookup, in cycles.
	Latency int
	// ServiceCycles is how long one access occupies its slice — the
	// per-SM share of L2 slice throughput. Accesses to a busy slice
	// queue behind it.
	ServiceCycles int
	// UseXORHash enables XOR set hashing within each partition.
	UseXORHash bool
	// DRAM configures the backing memory.
	DRAM dram.Config
}

// DefaultConfig returns the Table I L2 configuration.
func DefaultConfig() Config {
	return Config{
		TotalBytes:    768 << 10,
		Partitions:    6,
		Ways:          8,
		Latency:       180,
		ServiceCycles: 6,
		UseXORHash:    true,
		DRAM:          dram.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Partitions <= 0 {
		return fmt.Errorf("l2: non-positive partition count")
	}
	if c.TotalBytes%c.Partitions != 0 {
		return fmt.Errorf("l2: %dB not divisible into %d partitions", c.TotalBytes, c.Partitions)
	}
	if c.Latency < 0 {
		return fmt.Errorf("l2: negative latency %d", c.Latency)
	}
	if c.ServiceCycles < 1 {
		return fmt.Errorf("l2: slice service time %d cycles, want at least 1", c.ServiceCycles)
	}
	per := cache.Config{
		Name:      "L2-slice",
		SizeBytes: c.TotalBytes / c.Partitions,
		Ways:      c.Ways,
		Write:     cache.WriteBackAllocate,
	}
	if err := per.Validate(); err != nil {
		return err
	}
	return c.DRAM.Validate()
}

// Stats aggregates L2 activity across partitions.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// HitRate returns Hits/Accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// L2 is the partitioned second-level cache plus DRAM.
type L2 struct {
	cfg      Config
	parts    memory.Divisor // Partitions, for the slice index
	slices   []*cache.Cache
	busyTill []uint64 // per-slice service cursor
	mem      *dram.DRAM
	stats    Stats
}

// New builds the L2 from cfg.
func New(cfg Config) *L2 {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	slices := make([]*cache.Cache, cfg.Partitions)
	for i := range slices {
		slices[i] = cache.New(cache.Config{
			Name:       fmt.Sprintf("L2[%d]", i),
			SizeBytes:  cfg.TotalBytes / cfg.Partitions,
			Ways:       cfg.Ways,
			Write:      cache.WriteBackAllocate,
			UseXORHash: cfg.UseXORHash,
		})
	}
	return &L2{
		cfg:      cfg,
		parts:    memory.NewDivisor(uint64(cfg.Partitions)),
		slices:   slices,
		busyTill: make([]uint64, cfg.Partitions),
		mem:      dram.New(cfg.DRAM),
	}
}

// DRAM exposes the backing memory (for bandwidth probes by statPCAL).
func (l *L2) DRAM() *dram.DRAM { return l.mem }

// sliceIndex interleaves consecutive lines across the partitions.
func (l *L2) sliceIndex(addr memory.Addr) int {
	_, si := l.parts.DivMod(addr.LineIndex())
	return int(si)
}

func (l *L2) slice(addr memory.Addr) *cache.Cache {
	return l.slices[l.sliceIndex(addr)]
}

// occupySlice models the slice's service throughput: the access starts
// when both the request has arrived and the slice is free.
func (l *L2) occupySlice(si int, arrive uint64) (serviceDone uint64) {
	start := arrive
	if l.busyTill[si] > start {
		start = l.busyTill[si]
	}
	done := start + uint64(l.cfg.ServiceCycles)
	l.busyTill[si] = done
	return done
}

// Access serves a read or write arriving from an SM at cycle now and
// returns the completion cycle. An L2
// miss fetches the line from DRAM (write-allocate) and installs it; a
// dirty eviction performs a write-back. The slice looks the line's
// set up once: a miss fills the Set its lookup returned.
func (l *L2) Access(now uint64, addr memory.Addr, wid int, isWrite bool) (done uint64) {
	arrive := now + uint64(l.cfg.Latency)
	si := l.sliceIndex(addr)
	s := l.slices[si]
	served := l.occupySlice(si, arrive)
	l.stats.Accesses++
	hit, set := s.AccessSet(addr, served, isWrite)
	if hit {
		l.stats.Hits++
		return served
	}
	l.stats.Misses++
	if isWrite {
		// Fetch-on-write is skipped: a coalesced 128B store overwrites
		// the whole line, so the slice installs it directly and marks
		// it dirty. Only the eventual write-back consumes DRAM.
		ev, evicted := s.FillMiss(&set, wid, served)
		if evicted && ev.Dirty {
			l.mem.Service(served, ev.Line, true)
		}
		s.WriteHit(set, served)
		return served + 1
	}
	fillDone := l.mem.Service(served, addr, false)
	ev, evicted := s.FillMiss(&set, wid, fillDone)
	if evicted && ev.Dirty {
		// Write-back consumes DRAM bandwidth but is off the critical
		// path of the fill.
		l.mem.Service(fillDone, ev.Line, true)
	}
	return fillDone + 1
}

// Bypass services a request directly from DRAM without touching the L2
// tags — the statPCAL bypass path (L1D and L2 are skipped; the warp
// pays the full DRAM latency but avoids polluting the caches).
func (l *L2) Bypass(now uint64, addr memory.Addr, isWrite bool) (done uint64) {
	arrive := now + uint64(l.cfg.Latency)
	return l.mem.Service(arrive, addr, isWrite)
}

// Stats returns a snapshot of the L2 statistics.
func (l *L2) Stats() Stats { return l.stats }
