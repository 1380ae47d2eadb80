package sm

import "math/bits"

// MemPath selects where a warp's global accesses are served.
type MemPath uint8

// Memory paths.
const (
	// PathL1 is the conventional L1D path.
	PathL1 MemPath = iota
	// PathSharedCache redirects through the CIAO shared-memory cache.
	PathSharedCache
	// PathBypass skips L1D and goes straight to L2/DRAM (statPCAL).
	PathBypass
)

// Controller is the warp scheduler plus its policy hooks. One
// controller instance drives one GPU for one run; controllers carry
// state and must not be shared across concurrent GPUs.
type Controller interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Attach is called once before simulation with the GPU, letting
	// the controller size its tables.
	Attach(g *GPU)
	// Pick returns the warp to issue at cycle now, or -1 to idle.
	// GTO-ordered controllers take it from GreedyThenOldest.
	Pick(g *GPU, now uint64) int
	// MemPath routes warp wid's next global access.
	MemPath(g *GPU, wid int) MemPath
	// OnCycle runs once per cycle before issue (epoch bookkeeping).
	OnCycle(g *GPU, now uint64)
	// NextEvent is called after a cycle now that issued nothing: Pick
	// returned -1, or the picked warp failed a structural check (MSHR,
	// response queue or MLP budget full). It returns the earliest cycle
	// after now at which OnCycle or Pick may act differently, given that
	// until then no fill retires, no instruction issues, and a failed
	// warp retries every cycle. GPU.Run skips the cycles before it (and
	// before the next fill, sample or warp NextReady), so a controller
	// must keep OnCycle a no-op and Pick (and MemPath) repeating their
	// answer on the cycles it skips. Return now+1 to never skip, or
	// Never when only warp and memory state can change the answers.
	NextEvent(g *GPU, now uint64) uint64
	// OnVTAHit observes a lost-locality event: interfered warp's miss
	// matched its victim tags; interferer is the recorded evictor.
	// atShared reports whether the access was on the shared-cache path
	// (shared-memory interference rather than L1D interference).
	OnVTAHit(g *GPU, now uint64, interfered, interferer int, atShared bool)
	// OnWarpFinished observes warp completion.
	OnWarpFinished(g *GPU, wid int)
}

// Base is a no-op Controller core for embedding: concrete schedulers
// override what they need.
type Base struct{}

// Attach implements Controller.
func (Base) Attach(*GPU) {}

// MemPath implements Controller.
func (Base) MemPath(*GPU, int) MemPath { return PathL1 }

// OnCycle implements Controller.
func (Base) OnCycle(*GPU, uint64) {}

// Never is the NextEvent answer of a controller whose OnCycle and Pick
// change only with warp and memory state, never with time alone.
const Never = ^uint64(0)

// NextEvent implements Controller conservatively: no cycle is skipped.
func (Base) NextEvent(_ *GPU, now uint64) uint64 { return now + 1 }

// OnVTAHit implements Controller.
func (Base) OnVTAHit(*GPU, uint64, int, int, bool) {}

// OnWarpFinished implements Controller.
func (Base) OnWarpFinished(*GPU, int) {}

// GreedyThenOldest is the GTO issue order shared by most controllers:
// keep issuing the last warp while it stays ready, otherwise fall back
// to the oldest (lowest-ID) ready warp. It is embedded by GTO, CCWS,
// Best-SWL, statPCAL and CIAO, which all "leverage GTO to decide the
// order of execution of warps" (§V-A), and supplies their Pick.
type GreedyThenOldest struct {
	current int
}

// Pick implements Controller from the GPU's issue gate alone: a warp
// is ready when it is pickable and its NextReady has arrived (see
// GPU.gate). Throttling acts through the V flag, which the gate folds
// in: a stalled warp stays pickable only while its CTA has a warp
// waiting at a barrier, which all threads must reach. The fallback
// visits only the set bits of the pickable bitset, lowest ID first.
func (s *GreedyThenOldest) Pick(g *GPU, now uint64) int {
	if c := s.current; uint(c) < uint(len(g.gate)) && g.gate[c] <= now {
		return c
	}
	for wi, word := range g.pickable {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			if g.gate[i] <= now {
				s.current = i
				return i
			}
		}
	}
	return -1
}
