// Package sm is the cycle-level Streaming Multiprocessor model: warps,
// CTAs, barriers, the issue pipeline, the L1D + VTA + MSHR front end,
// the CIAO shared-memory cache path, and the fill/response machinery,
// driven by a pluggable warp-scheduling Controller.
//
// One GPU value simulates one SM plus its view of the shared L2/DRAM,
// on one goroutine. The paper's results are relative IPCs across warp
// schedulers, which are per-SM dynamics, so a figure is a grid of
// independent single-SM cells; the service engine runs those cells in
// parallel on its worker pool. A Cluster steps several SMs over one
// shared L2 in lock-step on one goroutine.
package sm

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/l2"
	"repro/internal/workload"
)

// Config shapes one simulated SM (Table I defaults via DefaultConfig).
type Config struct {
	// L1 is the L1D geometry.
	L1 cache.Config
	// VTAEntriesPerWarp is the victim-tag-array depth (Table I: 8).
	VTAEntriesPerWarp int
	// SharedMemBytes is the shared-memory capacity (Table I: 48KB).
	SharedMemBytes int
	// SMMTEntries bounds concurrent shared-memory allocations.
	SMMTEntries int
	// MSHREntries and MSHRMergeMax shape the L1 MSHR.
	MSHREntries  int
	MSHRMergeMax int
	// DependLatency is the minimum cycles between two issues of the
	// same warp (register dependency distance); it is what makes TLP
	// matter: with fewer ready warps than DependLatency the SM starves.
	DependLatency int
	// MaxOutstandingLines is the per-warp memory-level parallelism: a
	// warp keeps issuing until it has this many line fills in flight,
	// then blocks (hit-under-miss / scoreboard model).
	MaxOutstandingLines int
	// SharedHitLatency is the shared-memory access latency (Table I: 1).
	SharedHitLatency int
	// MigrationPenalty is the extra cycles for the L1D→shared-memory
	// single-copy migration through the response queue (§IV-B).
	MigrationPenalty int
	// ResponseQueueCap bounds in-flight fills.
	ResponseQueueCap int
	// MaxCycles aborts runaway simulations.
	MaxCycles uint64
	// SampleInterval is the time-series sampling period in cycles
	// (0 disables sampling).
	SampleInterval uint64
	// DeadlockWindow is how many idle cycles (no issue, nothing in
	// flight) are tolerated before stalled warps are force-released;
	// this mirrors the release valves real throttling schedulers need
	// so a stalled warp cannot block its CTA's barrier forever.
	DeadlockWindow uint64
	// EnableSharedCache reserves unused shared memory for the CIAO
	// on-chip memory architecture at construction time.
	EnableSharedCache bool
	// L2Config shapes the shared L2 + DRAM when the GPU builds its own.
	L2Config l2.Config
}

// DefaultConfig returns the Table I GTX480-like configuration.
func DefaultConfig() Config {
	return Config{
		L1: cache.Config{
			Name:       "L1D",
			SizeBytes:  16 << 10,
			Ways:       4,
			Write:      cache.WriteThroughNoAllocate,
			UseXORHash: true,
			HitLatency: 1,
		},
		VTAEntriesPerWarp:   8,
		SharedMemBytes:      48 << 10,
		SMMTEntries:         16,
		MSHREntries:         32,
		MSHRMergeMax:        8,
		DependLatency:       6,
		MaxOutstandingLines: 16,
		SharedHitLatency:    1,
		MigrationPenalty:    3,
		ResponseQueueCap:    64,
		MaxCycles:           0, // derived from the kernel when zero
		SampleInterval:      2000,
		DeadlockWindow:      2000,
		L2Config:            l2.DefaultConfig(),
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return err
	}
	if c.VTAEntriesPerWarp <= 0 {
		return fmt.Errorf("sm: non-positive VTA depth")
	}
	if c.SharedMemBytes <= 0 || c.SMMTEntries <= 0 {
		return fmt.Errorf("sm: invalid shared memory shape")
	}
	if c.MSHREntries < workload.MaxFanout || c.MSHRMergeMax <= 0 {
		return fmt.Errorf("sm: MSHR needs at least %d entries (max coalescing burst)", workload.MaxFanout)
	}
	if c.DependLatency <= 0 {
		return fmt.Errorf("sm: DependLatency must be positive")
	}
	if c.MaxOutstandingLines < workload.MaxFanout {
		return fmt.Errorf("sm: MaxOutstandingLines must cover one burst (%d)", workload.MaxFanout)
	}
	if c.ResponseQueueCap <= 0 {
		return fmt.Errorf("sm: response queue must be bounded and positive")
	}
	return c.L2Config.Validate()
}
