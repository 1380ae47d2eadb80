package memory

import "fmt"

// Request is one coalesced line request of a warp waiting in an MSHR
// entry: the address it asked for and the warp its fill wakes. It
// carries nothing else, because nothing else reads it: the SM's fill
// path needs only the warp, and loads are the only requests that wait.
// In a real GPU one warp instruction may coalesce into several line
// requests; the workload generator models that by emitting up to
// workload.MaxFanout line addresses per instruction.
type Request struct {
	// Addr is the global byte address.
	Addr Addr
	// WarpID identifies the issuing warp within its SM.
	WarpID int
}

// HitLevel identifies the hierarchy level that satisfied a request.
type HitLevel uint8

// Hit levels, ordered by distance from the SM.
const (
	HitL1 HitLevel = iota
	HitSharedCache
	HitL2
	HitDRAM
)

// String implements fmt.Stringer.
func (h HitLevel) String() string {
	switch h {
	case HitL1:
		return "L1"
	case HitSharedCache:
		return "SharedCache"
	case HitL2:
		return "L2"
	case HitDRAM:
		return "DRAM"
	default:
		return fmt.Sprintf("HitLevel(%d)", uint8(h))
	}
}
