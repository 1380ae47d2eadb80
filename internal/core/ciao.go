package core

import (
	"repro/internal/sm"
)

// Mode selects which CIAO mechanisms are enabled (§V-A).
type Mode uint8

// CIAO variants.
const (
	// ModeP: on-chip memory architecture only — interfering warps'
	// requests are redirected to unused shared memory; nobody stalls.
	ModeP Mode = iota
	// ModeT: selective throttling only — interfering warps are
	// stalled; no redirection.
	ModeT
	// ModeC: the full Algorithm 1 — redirect first, stall when the
	// redirected warp still interferes (at shared memory).
	ModeC
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeP:
		return "CIAO-P"
	case ModeT:
		return "CIAO-T"
	default:
		return "CIAO-C"
	}
}

// Params carries the CIAO tuning knobs with the paper's chosen values
// as defaults (§IV-A).
type Params struct {
	// HighCutoff is the IRS threshold above which a warp is considered
	// severely interfered (paper: 0.01, i.e. 1%).
	HighCutoff float64
	// LowCutoff is the IRS threshold below which stalled/isolated
	// warps are released (paper: 0.005 — half of HighCutoff).
	LowCutoff float64
	// HighEpoch is the high-cutoff check period in instructions
	// (paper: 5000).
	HighEpoch uint64
	// LowEpoch is the low-cutoff check period in instructions
	// (paper: 100).
	LowEpoch uint64
	// MinActive floors the number of active warps so throttling can
	// never wedge the SM.
	MinActive int
	// SharedStallFactor scales HighCutoff for the CIAO-C stall
	// decision: an already-isolated interferer is stalled only when
	// the interfered warp's IRS exceeds SharedStallFactor×HighCutoff —
	// the "intensity of interference at the shared memory exceeds a
	// threshold" test of §III-C. CIAO-T ignores it (its stalls are the
	// first-line response).
	SharedStallFactor float64
}

// DefaultParams returns the published tuning.
func DefaultParams() Params {
	return Params{
		HighCutoff:        0.01,
		LowCutoff:         0.005,
		HighEpoch:         5000,
		LowEpoch:          100,
		MinActive:         2,
		SharedStallFactor: 4,
	}
}

// CIAO is the cache interference-aware controller. One instance drives
// one GPU for one run.
type CIAO struct {
	sm.Base

	mode   Mode
	params Params

	ilist *InterferenceList
	pairs *PairList
	// stalled is the LIFO of stalled warps: reactivation happens in
	// reverse stall order (§III-C).
	stalled []int

	lastHigh uint64 // instruction count at last high-cutoff check
	lastLow  uint64

	// Windowed IRS state: per-warp VTA-hit snapshots taken at the two
	// epoch boundaries, so each epoch's decision reflects the *latest*
	// interference intensity rather than the whole-kernel average
	// ("CIAO should track the latest IRSi", §IV-A). The release-side
	// score is an EWMA: single 100-instruction windows are too sparse
	// to witness a hit, and releasing on one empty window would undo
	// every intervention immediately.
	highSnapHits []uint64
	highSnapInst uint64
	highIRS      []float64
	lowSnapHits  []uint64
	lowSnapInst  uint64
	lowIRS       []float64

	// Redirections and Stalls count interventions for reports.
	Redirections uint64
	Stalls       uint64
	// Reactivations counts stalled warps released again; it is kept
	// for tests.
	Reactivations uint64
}

// New builds a CIAO controller in the given mode with params.
func New(mode Mode, params Params) *CIAO {
	return &CIAO{mode: mode, params: params}
}

// NewP returns CIAO-P with default parameters.
func NewP() *CIAO { return New(ModeP, DefaultParams()) }

// NewT returns CIAO-T with default parameters.
func NewT() *CIAO { return New(ModeT, DefaultParams()) }

// NewC returns CIAO-C with default parameters.
func NewC() *CIAO { return New(ModeC, DefaultParams()) }

// Name implements sm.Controller.
func (c *CIAO) Name() string { return c.mode.String() }

// Mode returns the variant.
func (c *CIAO) Mode() Mode { return c.mode }

// Params returns the tuning.
func (c *CIAO) Params() Params { return c.params }

// Attach implements sm.Controller.
func (c *CIAO) Attach(g *sm.GPU) {
	n := g.NumWarps()
	c.ilist = NewInterferenceList(n)
	c.pairs = NewPairList(n)
	c.stalled = make([]int, 0, n)
	c.lastHigh, c.lastLow = 0, 0
	c.highSnapHits = make([]uint64, n)
	c.highIRS = make([]float64, n)
	c.lowSnapHits = make([]uint64, n)
	c.lowIRS = make([]float64, n)
	c.highSnapInst, c.lowSnapInst = 0, 0
}

// ewmaAlpha blends the newest window into the release-side IRS.
const ewmaAlpha = 0.25

// updateIRS recomputes the windowed IRS vector from the delta of VTA
// hits and instructions since the previous snapshot (Eq. 1 applied to
// the epoch window). With ewma=true the new window is blended into the
// existing score instead of replacing it.
func updateIRS(g *sm.GPU, snapHits []uint64, snapInst *uint64, irs []float64, ewma bool) {
	dInst := g.InstTotal() - *snapInst
	if dInst == 0 {
		dInst = 1
	}
	active := g.ActiveWarps()
	if active == 0 {
		active = 1
	}
	for i := range irs {
		hits := g.Warp(i).VTAHits
		d := hits - snapHits[i]
		window := float64(d) * float64(active) / float64(dInst)
		if ewma {
			irs[i] = (1-ewmaAlpha)*irs[i] + ewmaAlpha*window
		} else {
			irs[i] = window
		}
		snapHits[i] = hits
	}
	*snapInst = g.InstTotal()
}

// OnVTAHit feeds the interference list: the VTA names the evictor
// (interferer) whose fill displaced data the interfered warp
// re-referenced. L1D and shared-memory interference share one
// detector (§III-C).
func (c *CIAO) OnVTAHit(g *sm.GPU, now uint64, interfered, interferer int, atShared bool) {
	c.ilist.Observe(interfered, interferer)
}

// MemPath redirects isolated warps to the shared-memory cache.
func (c *CIAO) MemPath(g *sm.GPU, wid int) sm.MemPath {
	if g.Warp(wid).I {
		return sm.PathSharedCache
	}
	return sm.PathL1
}

// OnCycle runs the epoch machinery. Epochs are measured in executed
// instructions (§IV-A): every LowEpoch instructions stalled/isolated
// warps are re-examined for release; every HighEpoch instructions
// active warps are examined for intervention.
func (c *CIAO) OnCycle(g *sm.GPU, now uint64) {
	inst := g.InstTotal()
	if inst >= c.lastLow+c.params.LowEpoch {
		c.lastLow = inst
		updateIRS(g, c.lowSnapHits, &c.lowSnapInst, c.lowIRS, true)
		c.lowEpoch(g)
	}
	if inst >= c.lastHigh+c.params.HighEpoch {
		c.lastHigh = inst
		updateIRS(g, c.highSnapHits, &c.highSnapInst, c.highIRS, false)
		c.highEpoch(g)
	}
}

// Due implements sm.Controller. Epochs count instructions, so the next
// one falls due at an instruction count, never at a cycle; a
// zero-length epoch is due at once, so OnCycle runs every cycle.
func (c *CIAO) Due(*sm.GPU) (cycle, inst uint64) {
	return sm.Never, min(c.lastLow+c.params.LowEpoch, c.lastHigh+c.params.HighEpoch)
}

// lowEpoch implements Algorithm 1 lines 4–19: release decisions.
// Stalled warps are reactivated in reverse stall order once the warp
// that triggered the stall calms down (IRS ≤ low-cutoff) or finishes;
// isolated warps are routed back to L1D under the same condition.
func (c *CIAO) lowEpoch(g *sm.GPU) {
	// Reactivation: examine the most recently stalled warp only
	// (reverse order, one per epoch — §III-C).
	if n := len(c.stalled); n > 0 {
		wid := c.stalled[n-1]
		w := g.Warp(wid)
		if w.Finished() {
			c.stalled = c.stalled[:n-1]
			c.pairs.ClearStaller(wid)
		} else {
			k := c.pairs.Staller(wid)
			if k < 0 || g.Warp(k).Finished() || c.lowIRS[k] <= c.params.LowCutoff {
				g.SetActive(wid, true)
				c.pairs.ClearStaller(wid)
				c.stalled = c.stalled[:n-1]
				c.Reactivations++
			}
		}
	}
	// Un-redirection: return isolated warps to L1D when their trigger
	// warp calmed down or finished.
	for wid := 0; wid < g.NumWarps(); wid++ {
		w := g.Warp(wid)
		if !w.I || w.Finished() {
			continue
		}
		k := c.pairs.Redirector(wid)
		if k < 0 || g.Warp(k).Finished() || c.lowIRS[k] <= c.params.LowCutoff {
			w.I = false
			c.pairs.ClearRedirector(wid)
		}
	}
}

// highEpoch implements Algorithm 1 lines 20–29: intervention. For each
// active warp i whose IRS exceeds high-cutoff, the dominant interferer
// j is either redirected to shared memory (first offence, modes P/C),
// or stalled (mode T, or modes C when j is already redirected and
// still interferes).
func (c *CIAO) highEpoch(g *sm.GPU) {
	for i := 0; i < g.NumWarps(); i++ {
		wi := g.Warp(i)
		if wi.Finished() || !wi.Active() {
			continue
		}
		if c.highIRS[i] <= c.params.HighCutoff {
			continue
		}
		j := c.ilist.Top(i)
		if j < 0 || j == i || g.Warp(j).Finished() {
			continue
		}
		c.intervene(g, i, j)
	}
}

// intervene applies the mode-specific action against interferer j on
// behalf of interfered warp i.
func (c *CIAO) intervene(g *sm.GPU, i, j int) {
	// Seed the release-side score with the interference level that
	// triggered the intervention, so the release test has hysteresis.
	if c.highIRS[i] > c.lowIRS[i] {
		c.lowIRS[i] = c.highIRS[i]
	}
	wj := g.Warp(j)
	switch c.mode {
	case ModeP:
		if !wj.I && g.SharedCache() != nil {
			wj.I = true
			c.pairs.SetRedirector(j, i)
			c.Redirections++
		}
	case ModeT:
		c.stall(g, i, j)
	case ModeC:
		if !wj.I && g.SharedCache() != nil {
			wj.I = true
			c.pairs.SetRedirector(j, i)
			c.Redirections++
		} else if wj.Active() {
			// Stall an already-isolated interferer only when the
			// interference pressure is well above the redirect
			// threshold (§III-C: shared memory itself is thrashing).
			if c.highIRS[i] > c.params.SharedStallFactor*c.params.HighCutoff {
				c.stall(g, i, j)
			}
		}
	}
}

// stall clears j's V flag on behalf of i, respecting the MinActive
// floor.
func (c *CIAO) stall(g *sm.GPU, i, j int) {
	if !g.Warp(j).Active() {
		return
	}
	if g.ActiveWarps() <= c.params.MinActive {
		return
	}
	g.SetActive(j, false)
	c.pairs.SetStaller(j, i)
	c.stalled = append(c.stalled, j)
	c.Stalls++
}

// StalledCount reports how many warps are currently on the stall
// stack, for tests.
func (c *CIAO) StalledCount() int { return len(c.stalled) }
