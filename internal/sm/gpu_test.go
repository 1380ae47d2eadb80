package sm_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/workload"
)

// tinySpec is a fast thrashing workload for engine tests.
func tinySpec() workload.Spec {
	return workload.Spec{
		Name:          "tiny",
		Class:         workload.SWS,
		APKI:          150,
		InputBytes:    1 << 20,
		NwrpBest:      2,
		NumWarps:      8,
		WarpsPerCTA:   4,
		InstrPerWarp:  1500,
		RegionSharing: 2,
		StorePct:      10,
		Seed:          7,
	}
}

func testConfig() sm.Config {
	cfg := sm.DefaultConfig()
	cfg.SampleInterval = 500
	return cfg
}

func runGTO(t *testing.T, spec workload.Spec, cfg sm.Config) sm.Result {
	t.Helper()
	k := workload.MustKernel(spec)
	g := sm.MustGPU(cfg, k, sched.NewGTO(), nil)
	r := g.Run()
	if r.TimedOut {
		t.Fatalf("simulation timed out at %d cycles", r.Cycles)
	}
	return r
}

func TestRunToCompletion(t *testing.T) {
	spec := tinySpec()
	r := runGTO(t, spec, testConfig())
	want := uint64(spec.NumWarps) * spec.InstrPerWarp
	if r.Instructions != want {
		t.Fatalf("instructions = %d, want %d", r.Instructions, want)
	}
	if r.FinishedWarps != spec.NumWarps {
		t.Fatalf("finished = %d, want %d", r.FinishedWarps, spec.NumWarps)
	}
	if r.IPC <= 0 || r.IPC > 1 {
		t.Fatalf("IPC = %f out of (0,1]", r.IPC)
	}
	if r.Cycles == 0 {
		t.Fatal("no cycles elapsed")
	}
}

func TestDeterminism(t *testing.T) {
	r1 := runGTO(t, tinySpec(), testConfig())
	r2 := runGTO(t, tinySpec(), testConfig())
	if r1.Cycles != r2.Cycles || r1.Instructions != r2.Instructions ||
		r1.L1.Hits != r2.L1.Hits || r1.VTAHits != r2.VTAHits {
		t.Fatalf("non-deterministic: %+v vs %+v", r1, r2)
	}
}

func TestMemorySystemExercised(t *testing.T) {
	r := runGTO(t, tinySpec(), testConfig())
	if r.L1.Accesses == 0 {
		t.Fatal("no L1 accesses")
	}
	if r.L1.Misses == 0 {
		t.Fatal("thrashing workload produced no misses")
	}
	if r.L1.Hits == 0 {
		t.Fatal("windowed workload produced no hits")
	}
}

func TestVTAHitsUnderThrashing(t *testing.T) {
	// 8 warps × shared windows over a 32-set 4-way L1: evictions and
	// re-references must produce lost-locality (VTA) hits.
	spec := tinySpec()
	spec.NumWarps = 16
	spec.WarpsPerCTA = 4
	spec.InstrPerWarp = 3000
	r := runGTO(t, spec, testConfig())
	if r.VTAHits == 0 {
		t.Fatal("no VTA hits despite contention")
	}
}

func TestBarrierSynchronization(t *testing.T) {
	spec := tinySpec()
	spec.Barriers = true
	spec.BarrierEvery = 300
	r := runGTO(t, spec, testConfig())
	if r.FinishedWarps != spec.NumWarps {
		t.Fatalf("barrier kernel did not finish: %d warps", r.FinishedWarps)
	}
}

func TestBarrierForcesSlowestWarpToCatchUp(t *testing.T) {
	// With barriers every 200 instructions, no warp can be more than
	// ~one barrier interval ahead; verify via per-warp progress under a
	// scheduler that would otherwise run one warp far ahead.
	spec := tinySpec()
	spec.Barriers = true
	spec.BarrierEvery = 200
	k := workload.MustKernel(spec)
	g := sm.MustGPU(testConfig(), k, sched.NewGTO(), nil)
	for i := 0; i < 30000 && !g.Done(); i++ {
		g.Step()
		var lo, hi uint64 = 1 << 62, 0
		for w := 0; w < g.NumWarps(); w++ {
			if g.Warp(w).CTA != 0 || g.Warp(w).Finished() {
				continue
			}
			n := g.Warp(w).InstExecuted
			if n < lo {
				lo = n
			}
			if n > hi {
				hi = n
			}
		}
		if hi > lo && hi-lo > 2*spec.BarrierEvery+50 {
			t.Fatalf("cycle %d: warp progress spread %d exceeds barrier bound", i, hi-lo)
		}
	}
}

func TestStructuralStallsWithTinyMSHR(t *testing.T) {
	cfg := testConfig()
	cfg.MSHREntries = 8 // the minimum: one max-fanout burst
	cfg.MSHRMergeMax = 1
	spec := tinySpec()
	spec.NumWarps = 16
	spec.WarpsPerCTA = 4
	r := runGTO(t, spec, cfg)
	if r.StructStalls == 0 {
		t.Fatal("minimal MSHR produced no structural stalls")
	}
	if r.FinishedWarps != spec.NumWarps {
		t.Fatal("structural stalls prevented completion")
	}
}

func TestConfigRejectsSubFanoutMSHR(t *testing.T) {
	cfg := testConfig()
	cfg.MSHREntries = 4 // below MaxFanout: a burst could never issue
	if cfg.Validate() == nil {
		t.Fatal("sub-fanout MSHR accepted")
	}
}

func TestBestSWLLimitsActiveWarps(t *testing.T) {
	spec := tinySpec()
	k := workload.MustKernel(spec)
	g := sm.MustGPU(testConfig(), k, sched.NewBestSWL(2), nil)
	for i := 0; i < 200; i++ {
		g.Step()
	}
	if a := g.ActiveWarps(); a != 2 {
		t.Fatalf("active warps = %d, want 2", a)
	}
	r := g.Run()
	if r.FinishedWarps != spec.NumWarps {
		t.Fatalf("Best-SWL did not finish: %d", r.FinishedWarps)
	}
}

func TestBestSWLUsesTableNwrp(t *testing.T) {
	spec := tinySpec()
	spec.NwrpBest = 3
	k := workload.MustKernel(spec)
	s := sched.NewBestSWL(0)
	sm.MustGPU(testConfig(), k, s, nil)
	if s.Limit != 3 {
		t.Fatalf("limit = %d, want kernel Nwrp 3", s.Limit)
	}
}

func TestCCWSThrottlesUnderThrashing(t *testing.T) {
	spec := tinySpec()
	spec.NumWarps = 16
	spec.WarpsPerCTA = 4
	spec.InstrPerWarp = 4000
	k := workload.MustKernel(spec)
	ccws := sched.NewCCWS()
	g := sm.MustGPU(testConfig(), k, ccws, nil)
	throttledSeen := false
	for i := 0; i < 60000 && !g.Done(); i++ {
		g.Step()
		for w := 0; w < g.NumWarps(); w++ {
			if !g.Warp(w).Finished() && !g.Warp(w).Active() {
				throttledSeen = true
			}
		}
	}
	if !throttledSeen {
		t.Fatal("CCWS never throttled a thrashing workload")
	}
}

func TestStatPCALBypassesNonTokenWarps(t *testing.T) {
	spec := tinySpec()
	k := workload.MustKernel(spec)
	s := sched.NewStatPCAL()
	g := sm.MustGPU(testConfig(), k, s, nil)
	// Before anything finishes, tokens are the lowest-ID warps.
	if s.MemPath(g, 0) != sm.PathL1 || s.MemPath(g, 5) != sm.PathBypass {
		t.Fatal("statPCAL mem paths wrong")
	}
	r := g.Run()
	if r.FinishedWarps != spec.NumWarps {
		t.Fatal("statPCAL did not finish")
	}
	// Token set is Nwrp=2; bypassed warps must not allocate in L1, so
	// L1 accesses should be well below total memory instructions.
	if r.L1.Accesses == 0 {
		t.Fatal("token warps produced no L1 accesses")
	}
}

func TestCIAOPRedirectsToSharedCache(t *testing.T) {
	spec := tinySpec()
	spec.NumWarps = 16
	spec.WarpsPerCTA = 4
	spec.InstrPerWarp = 4000
	cfg := testConfig()
	cfg.EnableSharedCache = true
	k := workload.MustKernel(spec)
	ctrl := core.NewP()
	g := sm.MustGPU(cfg, k, ctrl, nil)
	r := g.Run()
	if r.FinishedWarps != spec.NumWarps {
		t.Fatal("CIAO-P did not finish")
	}
	if ctrl.Redirections == 0 {
		t.Fatal("CIAO-P never redirected a warp")
	}
	if r.SharedStats.Accesses == 0 {
		t.Fatal("shared-memory cache never accessed after redirection")
	}
}

func TestCIAOTStallsAndReactivates(t *testing.T) {
	spec := tinySpec()
	spec.NumWarps = 16
	spec.WarpsPerCTA = 4
	spec.InstrPerWarp = 4000
	k := workload.MustKernel(spec)
	ctrl := core.NewT()
	g := sm.MustGPU(testConfig(), k, ctrl, nil)
	r := g.Run()
	if r.FinishedWarps != spec.NumWarps {
		t.Fatal("CIAO-T did not finish")
	}
	if ctrl.Stalls == 0 {
		t.Fatal("CIAO-T never stalled a warp")
	}
	if ctrl.Reactivations == 0 && ctrl.StalledCount() == 0 {
		t.Fatal("stalled warps neither reactivated nor pending")
	}
}

func TestCIAOCWithoutSharedCacheFallsBackToL1(t *testing.T) {
	// EnableSharedCache=false: CIAO-C must still run (isolation is a
	// no-op; throttling still works).
	spec := tinySpec()
	k := workload.MustKernel(spec)
	ctrl := core.NewC()
	g := sm.MustGPU(testConfig(), k, ctrl, nil)
	if g.SharedCache() != nil {
		t.Fatal("shared cache built despite disabled config")
	}
	r := g.Run()
	if r.FinishedWarps != spec.NumWarps {
		t.Fatal("CIAO-C without shared cache did not finish")
	}
}

func TestSharedCacheReservationRespectsKernelUsage(t *testing.T) {
	spec := tinySpec()
	spec.FsMem = 0.5 // kernel claims half the shared memory
	cfg := testConfig()
	cfg.EnableSharedCache = true
	k := workload.MustKernel(spec)
	g := sm.MustGPU(cfg, k, sched.NewGTO(), nil)
	if g.SharedCache() == nil {
		t.Fatal("no shared cache despite free space")
	}
	// Consecutive lines fill every block of the direct-mapped cache.
	for line := 0; line < cfg.SharedMemBytes/memory.LineSize; line++ {
		g.SharedCache().Fill(memory.Addr(line*memory.LineSize), 0)
	}
	if capacity := g.SharedCache().Occupied() * memory.LineSize; capacity > cfg.SharedMemBytes/2 {
		t.Fatalf("CIAO cache %dB exceeds unused space", capacity)
	}
	if _, unused := g.SMMT().LargestFreeRegion(); unused != 0 {
		t.Fatalf("CIAO reservation left %dB unclaimed", unused)
	}
}

func TestTimeSeriesSampling(t *testing.T) {
	cfg := testConfig()
	cfg.SampleInterval = 200
	spec := tinySpec()
	k := workload.MustKernel(spec)
	g := sm.MustGPU(cfg, k, sched.NewGTO(), nil)
	g.Run()
	ts := g.TimeSeries()
	if ts.Len() == 0 {
		t.Fatal("no samples recorded")
	}
	prev := uint64(0)
	for _, s := range ts.Samples {
		if s.Cycle <= prev && prev != 0 {
			t.Fatal("samples not monotone in cycle")
		}
		prev = s.Cycle
		if s.IPC < 0 || s.IPC > 1 {
			t.Fatalf("interval IPC %f out of range", s.IPC)
		}
	}
}

func TestInterferenceMatrixPopulated(t *testing.T) {
	spec := tinySpec()
	spec.NumWarps = 16
	spec.WarpsPerCTA = 4
	spec.InstrPerWarp = 3000
	k := workload.MustKernel(spec)
	g := sm.MustGPU(testConfig(), k, sched.NewGTO(), nil)
	g.Run()
	if g.Interference().Total() == 0 {
		t.Fatal("interference matrix empty under thrashing")
	}
}

func TestDeadlockValve(t *testing.T) {
	// A pathological controller stalls everyone, so no warp is ever
	// pickable: the valve must free the warps so the run completes.
	spec := tinySpec()
	spec.InstrPerWarp = 50
	cfg := testConfig()
	cfg.DeadlockWindow = 100
	k := workload.MustKernel(spec)
	g := sm.MustGPU(cfg, k, &stallEverything{}, nil)
	r := g.Run()
	if r.DeadlockFrees == 0 {
		t.Fatal("valve never fired")
	}
	if r.FinishedWarps != spec.NumWarps {
		t.Fatal("run did not complete after valve release")
	}
}

// stallEverything stalls all warps at attach, exercising the deadlock
// valve. It has no epochs, so Run jumps straight from the first idle
// cycle to the valve's expiry.
type stallEverything struct{ sm.Base }

func (s *stallEverything) Name() string { return "stall-everything" }

func (s *stallEverything) Due(*sm.GPU) (cycle, inst uint64) { return sm.Never, sm.Never }

func (s *stallEverything) Attach(g *sm.GPU) {
	for i := 0; i < g.NumWarps(); i++ {
		g.SetActive(i, false)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig()
	bad.DependLatency = 0
	if bad.Validate() == nil {
		t.Fatal("zero depend latency accepted")
	}
	bad = testConfig()
	bad.ResponseQueueCap = 0
	if bad.Validate() == nil {
		t.Fatal("unbounded response queue accepted")
	}
	if _, err := sm.NewGPU(bad, workload.MustKernel(tinySpec()), sched.NewGTO(), nil); err == nil {
		t.Fatal("NewGPU accepted invalid config")
	}
}
