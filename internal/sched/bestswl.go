package sched

import "repro/internal/sm"

// BestSWL is the best static wavefront limiting scheduler [12]: only a
// fixed number of warps — profiled offline per benchmark (the Nwrp
// column of Table II) — are active for the whole run. It cannot adapt
// to phase changes (§V-C: ATAX), but its static limit avoids CCWS's
// over-throttling.
type BestSWL struct {
	sm.Base
	// Limit is the active warp count; 0 means use the benchmark's
	// published Nwrp.
	Limit int
}

// WarpLimit is the static warp limit Best-SWL keeps active and statPCAL
// hands L1D tokens to: limit, or the kernel's profiled nwrp when limit
// is not positive, clipped to at least one warp and at most the warps
// resident. Where it equals warps, neither controller ever acts.
func WarpLimit(limit, nwrp, warps int) int {
	if limit <= 0 {
		limit = nwrp
	}
	return min(max(limit, 1), warps)
}

// NewBestSWL returns a Best-SWL controller with the given limit
// (0 = take the kernel's profiled Nwrp at Attach).
func NewBestSWL(limit int) *BestSWL { return &BestSWL{Limit: limit} }

// Name implements sm.Controller.
func (s *BestSWL) Name() string { return "Best-SWL" }

// Attach stalls every warp beyond the limit.
func (s *BestSWL) Attach(g *sm.GPU) {
	s.Limit = WarpLimit(s.Limit, g.Kernel().Spec().NwrpBest, g.NumWarps())
	for i := 0; i < g.NumWarps(); i++ {
		g.SetActive(i, i < s.Limit)
	}
}

// Due implements sm.Controller: the limit is static, so Best-SWL has
// no epochs.
func (s *BestSWL) Due(*sm.GPU) (cycle, inst uint64) { return sm.Never, sm.Never }

// OnWarpFinished activates the next stalled warp when an active one
// retires, keeping the concurrent warp count at the limit.
func (s *BestSWL) OnWarpFinished(g *sm.GPU, wid int) {
	for i := 0; i < g.NumWarps(); i++ {
		if w := g.Warp(i); !w.Finished() && !w.Active() {
			g.SetActive(i, true)
			return
		}
	}
}
