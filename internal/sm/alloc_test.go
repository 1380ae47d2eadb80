package sm_test

import (
	"runtime"
	"testing"

	"repro/internal/harness"
	"repro/internal/sm"
	"repro/internal/workload"
)

// mallocs returns the heap allocations f performs, measured the way
// testing.AllocsPerRun does but as one sample, so an allocation made
// once per controller epoch is not averaged away to zero.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestSteadyStateCycleAllocs pins the hot-path guarantee: once a
// simulation is warmed up, simulating allocates nothing. The response
// queue is a preallocated ring, MSHR entries are pooled, warps hand out
// instructions from their batch buffers, the stream generator reads
// precompiled phase constants, and controllers reuse the buffers they
// size in Attach. Each Fig 8 scheduler runs a 12000-cycle window (twelve
// CCWS and statPCAL epochs) through Run, fast-forward included, as one
// sample. A regression here silently multiplies GC pressure across every
// sweep cell, so it fails loudly.
func TestSteadyStateCycleAllocs(t *testing.T) {
	const warm, window = 20000, 12000
	spec := tinySpec()
	spec.NumWarps = 16
	spec.InstrPerWarp = 20000
	for _, f := range harness.Schedulers() {
		cfg := sm.DefaultConfig()
		cfg.SampleInterval = 0 // the sampled time series may grow; exclude it
		cfg.EnableSharedCache = f.NeedsSharedCache
		cfg.MaxCycles = warm + window
		g := sm.MustGPU(cfg, workload.MustKernel(spec), f.New(), nil)
		// Warm up: fill the MSHR pool's working set, wrap the response
		// ring, populate caches, run the first epochs.
		for g.Cycle() < warm {
			g.Step()
		}
		var r sm.Result
		if n := mallocs(func() { r = g.Run() }); n != 0 {
			t.Errorf("%s: %d allocations in a %d-cycle steady-state window, want 0", f.Name, n, window)
		}
		if !r.TimedOut {
			t.Fatalf("%s: workload finished inside the window; lengthen it", f.Name)
		}
	}
}
