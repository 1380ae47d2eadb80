package sm

import "repro/internal/workload"

// Warp is the scheduler-visible state of one resident warp. The V
// (active) and I (isolated) flags are exactly the warp-list bits CIAO
// adds in §IV-A: V=1,I=0 active; V=1,I=1 isolated (memory requests
// redirected to shared memory); V=0 stalled.
type Warp struct {
	// ID is the warp slot (0..NumWarps-1).
	ID int
	// CTA is the warp's cooperative thread array.
	CTA int

	// v is the active flag V: cleared when the warp is stalled by a
	// throttling scheduler. GPU.SetActive is its only writer, so the
	// GPU's issue gate always reflects it.
	v bool
	// I is the isolation flag: set when CIAO redirects the warp's
	// global accesses to the shared-memory cache.
	I bool

	// Finished reports stream exhaustion.
	Finished bool
	// AtBarrier reports the warp is waiting at its CTA barrier.
	AtBarrier bool
	// Outstanding is the number of in-flight line fills.
	Outstanding int
	// MaxPending is the warp's memory-level parallelism: it may keep
	// issuing while Outstanding < MaxPending (set from the SM config).
	MaxPending int
	// NextReady is the earliest cycle the warp may issue again.
	NextReady uint64
	// InstExecuted counts issued instructions.
	InstExecuted uint64
	// VTAHits counts this warp's cumulative lost-locality detections
	// (the per-warp VTACount register of Figure 6).
	VTAHits uint64
	// LastIssued is the cycle of the warp's last issue, used by GTO.
	LastIssued uint64

	stream *workload.WarpStream
	// retryPending marks that the last instruction handed out by next
	// failed a structural hazard (MSHR full, response queue full) and
	// must be handed out again; the instruction stays in buf.
	retryPending bool

	// buf holds instructions pre-generated from the stream in batches,
	// so the per-issue path hands out a pointer into stable storage
	// (no per-instruction copy, no heap escape) and the stream's RNG
	// and phase bookkeeping amortise across warpBatch instructions.
	// The GPU owns the batches in one array, which keeps a Warp small
	// enough that a scheduler's scan over the warps stays dense.
	buf  *[warpBatch]workload.Instruction
	bufI uint8 // next instruction to hand out
	bufN uint8 // instructions generated into buf
}

// warpBatch is how many instructions a warp pre-generates per stream
// refill. Pre-generation is safe because streams are pure functions of
// their own state — nothing in the simulation feeds back into them.
const warpBatch = 16

// Active reports the V flag: false while a throttling scheduler stalls
// the warp.
func (w *Warp) Active() bool { return w.v }

// Ready reports whether the warp can be issued at cycle now. Stalled
// (V=0), finished, barrier-blocked and memory-blocked warps are not
// ready. A warp with in-flight fills may keep issuing (hit-under-miss)
// until its MLP budget is exhausted.
func (w *Warp) Ready(now uint64) bool {
	return w.v && w.NextReady <= now && !w.Finished && !w.AtBarrier && w.Outstanding < w.maxPending()
}

func (w *Warp) maxPending() int {
	if w.MaxPending <= 0 {
		return 1
	}
	return w.MaxPending
}

// State renders the CIAO three-state for diagnostics: "active",
// "isolated" or "stalled".
func (w *Warp) State() string {
	switch {
	case !w.v:
		return "stalled"
	case w.I:
		return "isolated"
	default:
		return "active"
	}
}

// next returns a pointer to the warp's next instruction, honouring a
// structurally stalled retry first. The pointee lives in the warp's
// batch buffer and is valid until the instruction after it is handed
// out (the issue path consumes it within the same cycle).
func (w *Warp) next() (*workload.Instruction, bool) {
	if w.retryPending {
		w.retryPending = false
		return &w.buf[w.bufI-1], true
	}
	if w.bufI == w.bufN {
		n := w.stream.Fill(w.buf[:])
		if n == 0 {
			return nil, false
		}
		w.bufI, w.bufN = 0, uint8(n)
	}
	ins := &w.buf[w.bufI]
	w.bufI++
	return ins, true
}

// retry re-queues the instruction most recently handed out by next,
// after a structural hazard.
func (w *Warp) retry() { w.retryPending = true }

// drained reports that the warp has no instruction left anywhere:
// stream exhausted, batch buffer consumed, no retry pending.
func (w *Warp) drained() bool {
	return !w.retryPending && w.bufI == w.bufN && w.stream.Done()
}
