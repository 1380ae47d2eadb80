package sched

import "repro/internal/sm"

// StatPCAL models the bypass scheme of Li et al. (HPCA 2015,
// "Priority-based cache allocation in throughput processors") as the
// paper uses it: a token set of warps (sized like Best-SWL's profiled
// limit) gets normal L1D allocation; the remaining warps stay active
// but *bypass* L1D straight to L2/DRAM whenever the DRAM bus has
// headroom, and are throttled when it does not. This preserves TLP
// without polluting L1D, but bypassed requests eat the long DRAM
// latency — the weakness CIAO exploits (§V-B).
type StatPCAL struct {
	sm.Base

	// Tokens is the number of L1-allocating warps (0 = kernel's Nwrp).
	Tokens int
	// CloseThreshold is the window DRAM-bus utilisation above which
	// the bypass valve closes (non-token warps throttle).
	CloseThreshold float64
	// OpenThreshold is the utilisation below which it reopens; the
	// gap provides hysteresis so the valve does not oscillate.
	OpenThreshold float64
	// UpdateEpoch is the bandwidth-probe period in cycles.
	UpdateEpoch uint64

	nBypass   int    // how many non-token warps may run this epoch
	tokens    []bool // tokens[wid]: warp wid holds an L1-allocation token
	nTokens   int    // how many entries of tokens are set
	lastCheck uint64
	lastBusy  uint64
}

// NewStatPCAL returns a statPCAL controller with default tuning.
func NewStatPCAL() *StatPCAL {
	return &StatPCAL{CloseThreshold: 0.85, OpenThreshold: 0.55, UpdateEpoch: 1000}
}

// Name implements sm.Controller.
func (s *StatPCAL) Name() string { return "statPCAL" }

// Attach sizes the token set.
func (s *StatPCAL) Attach(g *sm.GPU) {
	s.Tokens = WarpLimit(s.Tokens, g.Kernel().Spec().NwrpBest, g.NumWarps())
	s.tokens = make([]bool, g.NumWarps())
	s.nTokens = 0
	s.refillTokens(g)
	s.nBypass = 0
	s.lastCheck = 0
}

// refillTokens keeps the token set at Tokens live warps (lowest IDs
// first), handing a finished warp's token to the next live warp.
func (s *StatPCAL) refillTokens(g *sm.GPU) {
	for wid, held := range s.tokens {
		if held && g.Warp(wid).Finished() {
			s.tokens[wid] = false
			s.nTokens--
		}
	}
	for wid := 0; wid < g.NumWarps() && s.nTokens < s.Tokens; wid++ {
		if !g.Warp(wid).Finished() && !s.tokens[wid] {
			s.tokens[wid] = true
			s.nTokens++
		}
	}
}

// isToken reports whether the warp holds an L1-allocation token.
func (s *StatPCAL) isToken(wid int) bool { return s.tokens[wid] }

// OnWarpFinished reassigns a freed token.
func (s *StatPCAL) OnWarpFinished(g *sm.GPU, wid int) { s.refillTokens(g) }

// OnCycle probes DRAM bandwidth over the last epoch window and sizes
// the bypass set to the available headroom (with hysteresis at the
// extremes): full utilisation → no bypassers; idle bus → all of them.
func (s *StatPCAL) OnCycle(g *sm.GPU, now uint64) {
	if now < s.lastCheck+s.UpdateEpoch {
		return
	}
	window := now - s.lastCheck
	s.lastCheck = now
	busy := g.L2().DRAM().Stats().BusBusy
	util := float64(busy-s.lastBusy) / float64(window)
	s.lastBusy = busy

	nonTokens := g.NumWarps() - s.Tokens
	switch {
	case util >= s.CloseThreshold:
		s.nBypass = 0
	case util <= s.OpenThreshold:
		s.nBypass = nonTokens
	default:
		frac := (s.CloseThreshold - util) / (s.CloseThreshold - s.OpenThreshold)
		s.nBypass = int(frac * float64(nonTokens))
	}

	// Reflect the throttle state in V flags so active-warp accounting
	// (and the paper's Figure 9b-style plots) see it.
	granted := 0
	for i := 0; i < g.NumWarps(); i++ {
		w := g.Warp(i)
		if w.Finished() {
			continue
		}
		if s.isToken(i) {
			g.SetActive(i, true)
			continue
		}
		g.SetActive(i, granted < s.nBypass)
		granted++
	}
}

// Due implements sm.Controller: the next bandwidth probe.
func (s *StatPCAL) Due(*sm.GPU) (cycle, inst uint64) { return s.lastCheck + s.UpdateEpoch, sm.Never }

// MemPath sends non-token warps around L1D.
func (s *StatPCAL) MemPath(g *sm.GPU, wid int) sm.MemPath {
	if s.isToken(wid) {
		return sm.PathL1
	}
	return sm.PathBypass
}
