package sched

// Score returns a warp's current lost-locality score.
func (s *CCWS) Score(wid int) float64 { return s.scores[wid] }

// BypassOpen reports the valve state.
func (s *StatPCAL) BypassOpen() bool { return s.bypassOK }

// BypassGrants reports how many non-token warps may currently run.
func (s *StatPCAL) BypassGrants() int { return s.nBypass }
