package sched_test

import (
	"testing"

	"repro/internal/memory"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/workload"
)

func testSpec() workload.Spec {
	return workload.Spec{
		Name:          "sched-test",
		Class:         workload.SWS,
		APKI:          90,
		InputBytes:    2 << 20,
		NwrpBest:      4,
		NumWarps:      16,
		WarpsPerCTA:   4,
		InstrPerWarp:  2500,
		RegionSharing: 1,
		HeavyEvery:    5,
		StorePct:      5,
		Seed:          99,
	}
}

func newGPU(t *testing.T, ctrl sm.Controller) *sm.GPU {
	t.Helper()
	cfg := sm.DefaultConfig()
	cfg.SampleInterval = 500
	return sm.MustGPU(cfg, workload.MustKernel(testSpec()), ctrl, nil)
}

func TestGTORunsAllWarps(t *testing.T) {
	g := newGPU(t, sched.NewGTO())
	r := g.Run()
	if r.FinishedWarps != 16 || r.TimedOut {
		t.Fatalf("result: %+v", r)
	}
	// GTO never throttles.
	if r.DeadlockFrees != 0 {
		t.Fatal("GTO triggered the deadlock valve")
	}
}

func TestBestSWLDefaultsFromSpec(t *testing.T) {
	s := sched.NewBestSWL(0)
	g := newGPU(t, s)
	if s.Limit != 4 {
		t.Fatalf("limit = %d, want spec Nwrp 4", s.Limit)
	}
	if g.ActiveWarps() != 4 {
		t.Fatalf("active = %d", g.ActiveWarps())
	}
}

func TestBestSWLClampsLimit(t *testing.T) {
	s := sched.NewBestSWL(100)
	newGPU(t, s)
	if s.Limit != 16 {
		t.Fatalf("limit = %d, want clamp to 16", s.Limit)
	}
}

func TestBestSWLHandsOffOnFinish(t *testing.T) {
	s := sched.NewBestSWL(2)
	g := newGPU(t, s)
	r := g.Run()
	if r.FinishedWarps != 16 {
		t.Fatalf("finished = %d; warp hand-off broken", r.FinishedWarps)
	}
}

func TestCCWSScoresRiseOnVTAHits(t *testing.T) {
	ccws := sched.NewCCWS()
	g := newGPU(t, ccws)
	ccws.OnVTAHit(g, 0, 3, 7, false)
	ccws.OnVTAHit(g, 0, 3, 7, false)
	if ccws.Score(3) <= ccws.Score(4) {
		t.Fatal("VTA hits did not raise the interfered warp's score")
	}
}

func TestCCWSScoreCap(t *testing.T) {
	ccws := sched.NewCCWS()
	g := newGPU(t, ccws)
	for i := 0; i < 100; i++ {
		ccws.OnVTAHit(g, 0, 3, 7, false)
	}
	if ccws.Score(3) > ccws.ScoreCap {
		t.Fatalf("score %f exceeds cap %f", ccws.Score(3), ccws.ScoreCap)
	}
}

func TestCCWSBudgetThrottling(t *testing.T) {
	ccws := sched.NewCCWS()
	g := newGPU(t, ccws)
	// Give a handful of warps saturated scores: they should consume
	// the budget and stall the rest at the next update epoch.
	for _, w := range []int{0, 1, 2} {
		for i := 0; i < 20; i++ {
			ccws.OnVTAHit(g, 0, w, 9, false)
		}
	}
	ccws.OnCycle(g, ccws.UpdateEpoch+1)
	throttled := stalledWarps(g)
	if throttled == 0 {
		t.Fatal("budget mechanism throttled nobody")
	}
	// The highest-locality warp must stay active (CCWS protects
	// locality), and saturated scorers consume the budget so deeply
	// that most of the pool stalls — the over-throttling the paper
	// criticises.
	if !g.Warp(0).Active() {
		t.Fatal("top-locality warp stalled")
	}
	if throttled < g.NumWarps()/2 {
		t.Fatalf("only %d warps throttled despite saturated scores", throttled)
	}
	// No base-score warp may run while a higher scorer is stalled.
	for w := 3; w < g.NumWarps(); w++ {
		if g.Warp(w).Active() && !g.Warp(1).Active() && ccws.Score(w) < ccws.Score(1) {
			t.Fatalf("low-score warp %d active while high-score warp 1 stalled", w)
		}
	}
}

// stalledWarps counts the unfinished warps whose V flag is clear.
func stalledWarps(g *sm.GPU) int {
	n := 0
	for i := 0; i < g.NumWarps(); i++ {
		if w := g.Warp(i); !w.Finished() && !w.Active() {
			n++
		}
	}
	return n
}

func TestCCWSDecayReleases(t *testing.T) {
	ccws := sched.NewCCWS()
	g := newGPU(t, ccws)
	for i := 0; i < 30; i++ {
		ccws.OnVTAHit(g, 0, 0, 9, false)
	}
	ccws.OnCycle(g, ccws.UpdateEpoch+1)
	initial := stalledWarps(g)
	// With no further hits, decay must eventually reactivate everyone.
	for e := uint64(2); e < 200; e++ {
		ccws.OnCycle(g, (ccws.UpdateEpoch+1)*e)
	}
	if got := stalledWarps(g); got >= initial && initial > 0 {
		t.Fatalf("decay did not release warps: %d -> %d", initial, got)
	}
}

func TestCCWSCompletes(t *testing.T) {
	g := newGPU(t, sched.NewCCWS())
	r := g.Run()
	if r.FinishedWarps != 16 {
		t.Fatal("CCWS did not finish")
	}
}

func TestStatPCALTokenRotation(t *testing.T) {
	s := sched.NewStatPCAL()
	g := newGPU(t, s)
	if s.MemPath(g, 0) != sm.PathL1 {
		t.Fatal("warp 0 should hold a token")
	}
	r := g.Run()
	if r.FinishedWarps != 16 {
		t.Fatal("statPCAL did not finish")
	}
}

func TestStatPCALValveRespondsToBandwidth(t *testing.T) {
	s := sched.NewStatPCAL()
	g := newGPU(t, s)
	// Idle bus: grants should open fully at the first epoch.
	s.OnCycle(g, s.UpdateEpoch+1)
	if got := s.BypassGrants(); got != g.NumWarps()-s.Tokens {
		t.Fatalf("idle-bus grants = %d, want all %d", got, g.NumWarps()-s.Tokens)
	}
	// Saturate the DRAM bus, then re-probe: grants must drop to zero.
	for i := 0; i < 3000; i++ {
		g.L2().DRAM().Service(uint64(i), memory.Addr(0x1000_0000+0x80*(i%512)), false)
	}
	s.OnCycle(g, 2*(s.UpdateEpoch+1))
	if got := s.BypassGrants(); got != 0 {
		t.Fatalf("saturated-bus grants = %d, want 0", got)
	}
	if s.BypassOpen() {
		t.Fatal("valve open under saturation")
	}
}

func TestStatPCALBypassSkipsL1(t *testing.T) {
	s := sched.NewStatPCAL()
	g := newGPU(t, s)
	for wid := 0; wid < g.NumWarps(); wid++ {
		want := sm.PathL1
		if wid >= s.Tokens {
			want = sm.PathBypass
		}
		if got := s.MemPath(g, wid); got != want {
			t.Fatalf("warp %d path = %v, want %v", wid, got, want)
		}
	}
}
