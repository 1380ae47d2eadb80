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

// CoordCounters track the distributed sweep coordinator: shard leases
// granted, leases expired (worker presumed dead), shards re-assigned
// after expiry, shards acked complete, the record merge outcomes
// (merged into the canonical store vs dropped as duplicates), stale
// acks (a complete or heartbeat from a worker whose lease was already
// expired or re-assigned), capability routing (lease polls denied only
// because no pending shard matched the worker's tags/size hints) and
// admin interventions (operator force-expires, shards quarantined and
// released), and the crash-recovery journal: entries appended, entries
// replayed on recovery, compaction rewrites, sweeps reconstructed
// after a restart and leases restored still live.
type CoordCounters struct {
	LeasesGranted    Counter
	LeasesAffine     Counter
	LeasesExpired    Counter
	ShardsReassigned Counter
	ShardsCompleted  Counter
	RecordsMerged    Counter
	RecordsDeduped   Counter
	StaleAcks        Counter

	LeasesStarved       Counter
	AdminExpired        Counter
	ShardsQuarantined   Counter
	ShardsUnquarantined Counter

	JournalEntries     Counter
	JournalReplayed    Counter
	JournalCompactions Counter
	SweepsRecovered    Counter
	LeasesRecovered    Counter
}

// CoordSnapshot is a point-in-time, JSON-serializable view of
// CoordCounters.
type CoordSnapshot struct {
	LeasesGranted    uint64 `json:"leases_granted"`
	LeasesAffine     uint64 `json:"leases_affine"`
	LeasesExpired    uint64 `json:"leases_expired"`
	ShardsReassigned uint64 `json:"shards_reassigned"`
	ShardsCompleted  uint64 `json:"shards_completed"`
	RecordsMerged    uint64 `json:"records_merged"`
	RecordsDeduped   uint64 `json:"records_deduped"`
	StaleAcks        uint64 `json:"stale_acks"`

	LeasesStarved       uint64 `json:"leases_starved"`
	AdminExpired        uint64 `json:"admin_expired"`
	ShardsQuarantined   uint64 `json:"shards_quarantined"`
	ShardsUnquarantined uint64 `json:"shards_unquarantined"`

	JournalEntries     uint64 `json:"journal_entries"`
	JournalReplayed    uint64 `json:"journal_replayed"`
	JournalCompactions uint64 `json:"journal_compactions"`
	SweepsRecovered    uint64 `json:"sweeps_recovered"`
	LeasesRecovered    uint64 `json:"leases_recovered"`
}

// Snapshot captures the current values.
func (c *CoordCounters) Snapshot() CoordSnapshot {
	return CoordSnapshot{
		LeasesGranted:    c.LeasesGranted.Value(),
		LeasesAffine:     c.LeasesAffine.Value(),
		LeasesExpired:    c.LeasesExpired.Value(),
		ShardsReassigned: c.ShardsReassigned.Value(),
		ShardsCompleted:  c.ShardsCompleted.Value(),
		RecordsMerged:    c.RecordsMerged.Value(),
		RecordsDeduped:   c.RecordsDeduped.Value(),
		StaleAcks:        c.StaleAcks.Value(),

		LeasesStarved:       c.LeasesStarved.Value(),
		AdminExpired:        c.AdminExpired.Value(),
		ShardsQuarantined:   c.ShardsQuarantined.Value(),
		ShardsUnquarantined: c.ShardsUnquarantined.Value(),

		JournalEntries:     c.JournalEntries.Value(),
		JournalReplayed:    c.JournalReplayed.Value(),
		JournalCompactions: c.JournalCompactions.Value(),
		SweepsRecovered:    c.SweepsRecovered.Value(),
		LeasesRecovered:    c.LeasesRecovered.Value(),
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
