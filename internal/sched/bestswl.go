package sched

import "repro/internal/sm"

// BestSWL is the best static wavefront limiting scheduler [12]: only a
// fixed number of warps — profiled offline per benchmark (the Nwrp
// column of Table II) — are active for the whole run. It cannot adapt
// to phase changes (§V-C: ATAX), but its static limit avoids CCWS's
// over-throttling.
type BestSWL struct {
	sm.Base
	sm.GreedyThenOldest
	// Limit is the active warp count; 0 means use the benchmark's
	// published Nwrp.
	Limit int
}

// NewBestSWL returns a Best-SWL controller with the given limit
// (0 = take the kernel's profiled Nwrp at Attach).
func NewBestSWL(limit int) *BestSWL { return &BestSWL{Limit: limit} }

// Name implements sm.Controller.
func (s *BestSWL) Name() string { return "Best-SWL" }

// Attach stalls every warp beyond the limit.
func (s *BestSWL) Attach(g *sm.GPU) {
	limit := s.Limit
	if limit <= 0 {
		limit = g.Kernel().Spec().NwrpBest
	}
	if limit <= 0 {
		limit = 1
	}
	if limit > g.NumWarps() {
		limit = g.NumWarps()
	}
	s.Limit = limit
	for i := 0; i < g.NumWarps(); i++ {
		g.SetActive(i, i < limit)
	}
}

// NextEvent implements sm.Controller: the limit is static, so only
// warp state changes the pick.
func (s *BestSWL) NextEvent(*sm.GPU, uint64) uint64 { return sm.Never }

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
