package sched

import (
	"cmp"
	"slices"

	"repro/internal/sm"
)

// CCWS is Cache-Conscious Wavefront Scheduling (Rogers et al., MICRO
// 2012), the paper's main point of comparison, modelled after its
// lost-locality scoring system: each warp carries a score that jumps
// on every one of its VTA hits (it re-referenced data it lost to
// interference — locality worth protecting) and decays back toward the
// base otherwise. The scores compete for a fixed point budget of
// NumWarps × Base: warps are ranked by score and only the prefix whose
// cumulative score fits the budget may issue. A few warps with strong
// locality therefore crowd out many others — the very over-throttling
// on compute-intensive workloads that the CIAO paper criticises.
type CCWS struct {
	sm.Base

	// BaseScore is each warp's resting score (one budget share).
	BaseScore float64
	// ScoreBump is added to a warp's score on each of its VTA hits.
	ScoreBump float64
	// ScoreCap bounds an individual score.
	ScoreCap float64
	// Decay multiplies the above-base part of scores each epoch.
	Decay float64
	// UpdateEpoch is the throttle-set refresh period in cycles.
	UpdateEpoch uint64

	scores    []float64
	order     []int // OnCycle's ranking buffer, reused every epoch
	lastCheck uint64
}

// NewCCWS returns a CCWS controller with the default tuning.
func NewCCWS() *CCWS {
	return &CCWS{
		BaseScore:   1,
		ScoreBump:   2,
		ScoreCap:    16,
		Decay:       0.93,
		UpdateEpoch: 1000,
	}
}

// Name implements sm.Controller.
func (s *CCWS) Name() string { return "CCWS" }

// Attach implements sm.Controller.
func (s *CCWS) Attach(g *sm.GPU) {
	s.scores = make([]float64, g.NumWarps())
	for i := range s.scores {
		s.scores[i] = s.BaseScore
	}
	s.order = make([]int, 0, g.NumWarps())
	s.lastCheck = 0
}

// OnVTAHit raises the interfered warp's lost-locality score.
func (s *CCWS) OnVTAHit(g *sm.GPU, now uint64, interfered, interferer int, atShared bool) {
	s.scores[interfered] += s.ScoreBump
	if s.scores[interfered] > s.ScoreCap {
		s.scores[interfered] = s.ScoreCap
	}
}

// OnCycle refreshes the throttle set each epoch: warps ranked by score
// descending claim budget greedily; warps that do not fit are stalled.
func (s *CCWS) OnCycle(g *sm.GPU, now uint64) {
	if now < s.lastCheck+s.UpdateEpoch {
		return
	}
	s.lastCheck = now

	for i := range s.scores {
		// The explicit conversion rounds the product before the add,
		// so no platform fuses the two into one FMA and the scores
		// are identical everywhere.
		s.scores[i] = s.BaseScore + float64((s.scores[i]-s.BaseScore)*s.Decay)
	}

	s.order = s.order[:0]
	for i := 0; i < g.NumWarps(); i++ {
		if !g.Warp(i).Finished() {
			s.order = append(s.order, i)
		}
	}
	// Highest locality first; older warps win ties.
	slices.SortFunc(s.order, func(a, b int) int {
		if c := cmp.Compare(s.scores[b], s.scores[a]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	budget := float64(len(s.order)) * s.BaseScore
	cum := 0.0
	activated := 0
	for _, wid := range s.order {
		sc := s.scores[wid]
		if sc < s.BaseScore {
			sc = s.BaseScore
		}
		cum += sc
		active := cum <= budget || activated == 0 // always keep one
		g.SetActive(wid, active)
		if active {
			activated++
		}
	}
}

// Due implements sm.Controller: the next throttle-set refresh.
func (s *CCWS) Due(*sm.GPU) (cycle, inst uint64) { return s.lastCheck + s.UpdateEpoch, sm.Never }
