package core_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sm"
	"repro/internal/workload"
)

// thrashSpec produces sustained L1D interference quickly.
func thrashSpec() workload.Spec {
	return workload.Spec{
		Name:          "thrash",
		Class:         workload.SWS,
		APKI:          110,
		InputBytes:    4 << 20,
		NwrpBest:      4,
		NumWarps:      24,
		WarpsPerCTA:   8,
		InstrPerWarp:  3500,
		RegionSharing: 1,
		HeavyEvery:    5,
		StorePct:      5,
		Seed:          1234,
	}
}

func buildGPU(t *testing.T, ctrl sm.Controller, shared bool) *sm.GPU {
	t.Helper()
	cfg := sm.DefaultConfig()
	cfg.EnableSharedCache = shared
	return sm.MustGPU(cfg, workload.MustKernel(thrashSpec()), ctrl, nil)
}

func TestModeStrings(t *testing.T) {
	if core.ModeP.String() != "CIAO-P" || core.ModeT.String() != "CIAO-T" || core.ModeC.String() != "CIAO-C" {
		t.Fatal("mode strings wrong")
	}
	if core.NewP().Name() != "CIAO-P" || core.NewT().Name() != "CIAO-T" || core.NewC().Name() != "CIAO-C" {
		t.Fatal("constructor names wrong")
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := core.DefaultParams()
	if p.HighCutoff != 0.01 || p.LowCutoff != 0.005 {
		t.Errorf("cutoffs = %f/%f, want 0.01/0.005 (§IV-A)", p.HighCutoff, p.LowCutoff)
	}
	if p.HighEpoch != 5000 || p.LowEpoch != 100 {
		t.Errorf("epochs = %d/%d, want 5000/100 (§IV-A)", p.HighEpoch, p.LowEpoch)
	}
}

func TestCIAOPOnlyRedirects(t *testing.T) {
	ctrl := core.NewP()
	g := buildGPU(t, ctrl, true)
	r := g.Run()
	if r.FinishedWarps != 24 {
		t.Fatal("CIAO-P did not finish")
	}
	if ctrl.Redirections == 0 {
		t.Fatal("CIAO-P never redirected")
	}
	if ctrl.Stalls != 0 {
		t.Fatalf("CIAO-P stalled %d warps; mode P must never stall", ctrl.Stalls)
	}
}

func TestCIAOTOnlyStalls(t *testing.T) {
	ctrl := core.NewT()
	g := buildGPU(t, ctrl, false)
	r := g.Run()
	if r.FinishedWarps != 24 {
		t.Fatal("CIAO-T did not finish")
	}
	if ctrl.Stalls == 0 {
		t.Fatal("CIAO-T never stalled")
	}
	if ctrl.Redirections != 0 {
		t.Fatalf("CIAO-T redirected %d warps; mode T must never redirect", ctrl.Redirections)
	}
}

func TestCIAOCRedirectsBeforeStalling(t *testing.T) {
	ctrl := core.NewC()
	g := buildGPU(t, ctrl, true)
	r := g.Run()
	if r.FinishedWarps != 24 {
		t.Fatal("CIAO-C did not finish")
	}
	if ctrl.Redirections == 0 {
		t.Fatal("CIAO-C never redirected")
	}
	// Algorithm 1: redirection is the first-line response; stalls only
	// apply to already-redirected warps, so they cannot outnumber
	// redirections in mode C.
	if ctrl.Stalls > ctrl.Redirections {
		t.Fatalf("stalls (%d) exceed redirections (%d) in mode C", ctrl.Stalls, ctrl.Redirections)
	}
}

func TestMemPathFollowsIsolationFlag(t *testing.T) {
	ctrl := core.NewC()
	g := buildGPU(t, ctrl, true)
	if ctrl.MemPath(g, 0) != sm.PathL1 {
		t.Fatal("fresh warp should use L1")
	}
	g.Warp(0).I = true
	if ctrl.MemPath(g, 0) != sm.PathSharedCache {
		t.Fatal("isolated warp should use the shared cache")
	}
}

func TestPairListRecordsTriggers(t *testing.T) {
	ctrl := core.NewC()
	g := buildGPU(t, ctrl, true)
	for i := 0; i < 200000 && !g.Done() && ctrl.Redirections == 0; i++ {
		g.Step()
	}
	if ctrl.Redirections == 0 {
		t.Skip("no redirection occurred in window")
	}
	// Some isolated warp must have its redirector recorded.
	found := false
	for w := 0; w < g.NumWarps(); w++ {
		if g.Warp(w).I && ctrl.PairListRef().Redirector(w) >= 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("no isolated warp has a pair-list redirector")
	}
}

func TestReactivationReverseOrder(t *testing.T) {
	ctrl := core.NewT()
	g := buildGPU(t, ctrl, false)
	g.Run()
	// Total stalls equal reactivations plus warps still stalled or
	// finished while stalled — conservation of the stall stack.
	if ctrl.Reactivations > ctrl.Stalls {
		t.Fatalf("reactivations (%d) exceed stalls (%d)", ctrl.Reactivations, ctrl.Stalls)
	}
}

func TestMinActiveFloor(t *testing.T) {
	p := core.DefaultParams()
	p.MinActive = 6
	// Extremely aggressive thresholds so CIAO-T tries to stall hard.
	p.HighCutoff = 0.000001
	p.LowCutoff = 0.0000005
	ctrl := core.New(core.ModeT, p)
	g := buildGPU(t, ctrl, false)
	for i := 0; i < 100000 && !g.Done(); i++ {
		g.Step()
		live := 0
		for w := 0; w < g.NumWarps(); w++ {
			if !g.Warp(w).Finished() {
				live++
			}
		}
		if g.ActiveWarps() < p.MinActive && live >= p.MinActive {
			t.Fatalf("active warps %d fell below floor %d", g.ActiveWarps(), p.MinActive)
		}
	}
}

func TestCIAOWithoutSharedCacheNeverIsolates(t *testing.T) {
	ctrl := core.NewP()
	g := buildGPU(t, ctrl, false) // no shared cache
	g.Run()
	if ctrl.Redirections != 0 {
		t.Fatal("redirections recorded without a shared cache")
	}
	for w := 0; w < g.NumWarps(); w++ {
		if g.Warp(w).I {
			t.Fatal("isolation flag set without a shared cache")
		}
	}
}

func TestSharedStallFactorGatesModeC(t *testing.T) {
	strict := core.DefaultParams()
	strict.SharedStallFactor = 1000 // effectively never stall
	ctrl := core.New(core.ModeC, strict)
	g := buildGPU(t, ctrl, true)
	g.Run()
	if ctrl.Stalls != 0 {
		t.Fatalf("stalls = %d despite prohibitive SharedStallFactor", ctrl.Stalls)
	}
}

func TestCIAOImprovesOverUncontrolledBaseline(t *testing.T) {
	// Sanity: on a thrashing workload, CIAO-C must not be slower than
	// a controller that never intervenes (GTO order is shared, so any
	// difference comes from CIAO's mechanisms).
	base := buildGPU(t, &passthrough{}, false).Run()
	ciao := buildGPU(t, core.NewC(), true).Run()
	if ciao.IPC < 0.9*base.IPC {
		t.Fatalf("CIAO-C IPC %f well below baseline %f", ciao.IPC, base.IPC)
	}
}

// passthrough is a minimal controller without any CIAO machinery, used
// as the neutral baseline: the GPU's own GTO order.
type passthrough struct{ sm.Base }

func (p *passthrough) Name() string { return "passthrough" }

func (p *passthrough) Due(*sm.GPU) (cycle, inst uint64) { return sm.Never, sm.Never }
