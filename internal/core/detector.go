// Package core implements the CIAO contribution: the cache
// interference detector (§III-A, §IV-A) and the three CIAO scheduling
// controllers — CIAO-P (redirect interfering warps' memory requests to
// unused shared memory), CIAO-T (selectively throttle interfering
// warps) and CIAO-C (the synergistic combination, Algorithm 1).
package core

// InterferenceEntry is one interference-list record: the most recently
// and frequently interfering warp for the indexed warp, guarded by a
// 2-bit saturating counter (§III-A, Figure 4c).
type InterferenceEntry struct {
	// WID is the tracked interfering warp; -1 when empty.
	WID int
	// Counter is the 2-bit saturating confidence (0..3).
	Counter uint8
}

// InterferenceList tracks, per warp, its dominant interferer. The
// paper's observation (Figure 4a/4b): interference is highly skewed,
// so tracking only the top interferer with a small confidence counter
// captures most of it at O(n) cost instead of O(n²).
type InterferenceList struct {
	entries []InterferenceEntry
}

// NewInterferenceList builds a list for n warps.
func NewInterferenceList(n int) *InterferenceList {
	l := &InterferenceList{entries: make([]InterferenceEntry, n)}
	for i := range l.entries {
		l.entries[i].WID = -1
	}
	return l
}

// Observe records that interferer evicted data re-referenced by
// interfered (one VTA hit), following the Figure 4c protocol:
// same warp → increment (saturating at 3); different warp → decrement,
// replacing the tracked WID only when the counter reaches 0.
func (l *InterferenceList) Observe(interfered, interferer int) {
	if interfered < 0 || interfered >= len(l.entries) || interfered == interferer {
		return
	}
	e := &l.entries[interfered]
	switch {
	case e.WID == -1:
		e.WID, e.Counter = interferer, 0
	case e.WID == interferer:
		if e.Counter < 3 {
			e.Counter++
		}
	default:
		if e.Counter == 0 {
			e.WID = interferer
		} else {
			e.Counter--
		}
	}
}

// Top returns the dominant interferer for the warp, or -1.
func (l *InterferenceList) Top(interfered int) int {
	if interfered < 0 || interfered >= len(l.entries) {
		return -1
	}
	return l.entries[interfered].WID
}

// PairList records, per warp, which interfered warp triggered the
// warp's redirection (field 0) and which triggered its stall
// (field 1) — the two-field pair list of §IV-A. -1 means empty.
type PairList struct {
	pairs [][2]int
}

// NewPairList builds a pair list for n warps.
func NewPairList(n int) *PairList {
	p := &PairList{pairs: make([][2]int, n)}
	for i := range p.pairs {
		p.pairs[i] = [2]int{-1, -1}
	}
	return p
}

// Redirector returns the warp whose interference triggered wid's
// redirection, or -1.
func (p *PairList) Redirector(wid int) int { return p.pairs[wid][0] }

// Staller returns the warp whose interference triggered wid's stall,
// or -1.
func (p *PairList) Staller(wid int) int { return p.pairs[wid][1] }

// SetRedirector records the redirect trigger.
func (p *PairList) SetRedirector(wid, trigger int) { p.pairs[wid][0] = trigger }

// SetStaller records the stall trigger.
func (p *PairList) SetStaller(wid, trigger int) { p.pairs[wid][1] = trigger }

// ClearRedirector empties field 0.
func (p *PairList) ClearRedirector(wid int) { p.pairs[wid][0] = -1 }

// ClearStaller empties field 1.
func (p *PairList) ClearStaller(wid int) { p.pairs[wid][1] = -1 }
