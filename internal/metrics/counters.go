package metrics

import "sync/atomic"

// Counter is a goroutine-safe monotonically increasing counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a goroutine-safe level that moves both ways — subscriber
// counts, queue depths. Counters are for events; gauges are for
// occupancy.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// CacheCounters tracks result-cache effectiveness for long-lived
// services: hits serve stored bytes, misses trigger a simulation, and
// evictions measure pressure on the configured capacity.
type CacheCounters struct {
	Hits      Counter
	Misses    Counter
	Evictions Counter
}

// SweepCounters track the sweep subsystem: sweeps started, cells
// completed and cells failed across every sweep of the process.
type SweepCounters struct {
	Started     Counter
	CellsDone   Counter
	CellsFailed Counter
}

// SweepSnapshot is a point-in-time, JSON-serializable view of
// SweepCounters.
type SweepSnapshot struct {
	Started     uint64 `json:"started"`
	CellsDone   uint64 `json:"cells_done"`
	CellsFailed uint64 `json:"cells_failed"`
}

// Snapshot captures the current values.
func (c *SweepCounters) Snapshot() SweepSnapshot {
	return SweepSnapshot{
		Started:     c.Started.Value(),
		CellsDone:   c.CellsDone.Value(),
		CellsFailed: c.CellsFailed.Value(),
	}
}

// StoreCounters track the tiered result store across every sweep of
// the process: compaction rewrites, immutable segments written (and
// the result bytes moved into them), live tail followers currently
// subscribed, and followers that fell behind the broadcast and had to
// resync from disk.
type StoreCounters struct {
	Compactions     Counter
	SegmentsWritten Counter
	SegmentBytes    Counter
	TailLagged      Counter
	TailSubscribers Gauge
}

// StoreSnapshot is a point-in-time, JSON-serializable view of
// StoreCounters.
type StoreSnapshot struct {
	Compactions     uint64 `json:"compactions"`
	SegmentsWritten uint64 `json:"segments_written"`
	SegmentBytes    uint64 `json:"segment_bytes"`
	TailLagged      uint64 `json:"tail_lagged"`
	TailSubscribers int64  `json:"tail_subscribers"`
}

// Snapshot captures the current values.
func (c *StoreCounters) Snapshot() StoreSnapshot {
	return StoreSnapshot{
		Compactions:     c.Compactions.Value(),
		SegmentsWritten: c.SegmentsWritten.Value(),
		SegmentBytes:    c.SegmentBytes.Value(),
		TailLagged:      c.TailLagged.Value(),
		TailSubscribers: c.TailSubscribers.Value(),
	}
}

// CacheSnapshot is a point-in-time, JSON-serializable view of
// CacheCounters.
type CacheSnapshot struct {
	Hits      uint64  `json:"hits"`
	Misses    uint64  `json:"misses"`
	Evictions uint64  `json:"evictions"`
	HitRate   float64 `json:"hit_rate"`
}

// Snapshot captures the current values.
func (c *CacheCounters) Snapshot() CacheSnapshot {
	s := CacheSnapshot{
		Hits:      c.Hits.Value(),
		Misses:    c.Misses.Value(),
		Evictions: c.Evictions.Value(),
	}
	if total := s.Hits + s.Misses; total > 0 {
		s.HitRate = float64(s.Hits) / float64(total)
	}
	return s
}
