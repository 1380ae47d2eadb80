package memory

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
