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
