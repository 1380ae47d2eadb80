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

	// The issue gate (GPU.refreshGate) reads the next five fields, so
	// only the GPU writes them.

	// finished reports stream exhaustion.
	finished bool
	// atBarrier reports the warp is waiting at its CTA barrier.
	atBarrier bool
	// outstanding is the number of in-flight line fills.
	outstanding int
	// maxPending is the warp's memory-level parallelism: it may keep
	// issuing while outstanding < maxPending (the SM config's
	// MaxOutstandingLines, which Config.Validate keeps at least one
	// burst).
	maxPending int
	// nextReady is the earliest cycle the warp may issue again.
	nextReady uint64
	// InstExecuted counts issued instructions. It is kept for tests
	// that bound how far apart barriers let warps run.
	InstExecuted uint64
	// VTAHits counts this warp's cumulative lost-locality detections
	// (the per-warp VTACount register of Figure 6).
	VTAHits uint64

	stream *workload.WarpStream
	// retryPending marks that the last instruction handed out by next,
	// a global load, failed a structural check (MLP budget, response
	// queue or MSHR full) and must be handed out again; the instruction
	// stays in buf, where pending reads it.
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

// Finished reports that the warp has run its whole stream.
func (w *Warp) Finished() bool { return w.finished }

// next returns a pointer to the warp's next instruction, honouring a
// structurally stalled retry first. The pointee lives in the warp's
// batch buffer and is valid until the instruction after it is handed
// out (the issue path consumes it within the same cycle).
func (w *Warp) next() (*workload.Instruction, bool) {
	if w.retryPending {
		w.retryPending = false
		return w.pending(), true
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

// pending returns the instruction a failed issue left for retry.
func (w *Warp) pending() *workload.Instruction { return &w.buf[w.bufI-1] }

// drained reports that the warp has no instruction left anywhere:
// stream exhausted, batch buffer consumed, no retry pending.
func (w *Warp) drained() bool {
	return !w.retryPending && w.bufI == w.bufN && w.stream.Done()
}
