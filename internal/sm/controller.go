package sm

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

// Controller is a scheduler's policy. The GPU itself issues in
// greedy-then-oldest order (GPU.pick), which every scheduler the paper
// evaluates shares (§V-A); a controller steers it only through the V
// flags (GPU.SetActive), the I flags, MemPath and its epochs. One
// controller instance drives one GPU for one run; controllers carry
// state and must not be shared across concurrent GPUs.
type Controller interface {
	// Name identifies the scheduler in reports.
	Name() string
	// Attach is called once before simulation with the GPU, letting
	// the controller size its tables.
	Attach(g *GPU)
	// MemPath routes warp wid's next global access. It must answer
	// from state that only the controller's hooks change.
	MemPath(g *GPU, wid int) MemPath
	// OnCycle does epoch work before issue. The GPU calls it at the
	// first step whose cycle reaches Due's cycle or whose InstTotal
	// reaches Due's inst.
	OnCycle(g *GPU, now uint64)
	// Due returns the earliest cycle, and the earliest InstTotal, at
	// which OnCycle may act; before both, OnCycle must do nothing. The
	// GPU reads it after Attach and after every OnCycle call, so only
	// those two may change it. GPU.Run skips quiet cycles up to the due
	// cycle, never while the due inst has been reached. Return Never
	// for a value that never falls due, and (0, 0) to run OnCycle every
	// cycle.
	Due(g *GPU) (cycle, inst uint64)
	// OnVTAHit observes a lost-locality event: interfered warp's miss
	// matched its victim tags; interferer is the recorded evictor.
	// atShared reports whether the access was on the shared-cache path
	// (shared-memory interference rather than L1D interference).
	OnVTAHit(g *GPU, now uint64, interfered, interferer int, atShared bool)
	// OnWarpFinished observes warp completion.
	OnWarpFinished(g *GPU, wid int)
}

// Base is a no-op core of a Controller for embedding: concrete
// schedulers add Name and Due, and override what else they need.
type Base struct{}

// Attach implements Controller.
func (Base) Attach(*GPU) {}

// MemPath implements Controller.
func (Base) MemPath(*GPU, int) MemPath { return PathL1 }

// OnCycle implements Controller.
func (Base) OnCycle(*GPU, uint64) {}

// Never is the Due answer of a controller whose OnCycle never acts at
// a cycle (or an instruction count).
const Never = ^uint64(0)

// OnVTAHit implements Controller.
func (Base) OnVTAHit(*GPU, uint64, int, int, bool) {}

// OnWarpFinished implements Controller.
func (Base) OnWarpFinished(*GPU, int) {}
