package sm

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/l2"
	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/sharedmem"
	"repro/internal/workload"
)

// Event payload markers for the response queue.
const (
	payloadL1 = iota
	payloadShared
	payloadBypass
)

// stepKind classifies a simulated cycle for the fast-forward in Run.
type stepKind uint8

const (
	// stepBusy changed warp, queue or cache state: an instruction
	// issued, a warp finished, or the deadlock valve freed warps.
	stepBusy stepKind = iota
	// stepIdle picked no warp.
	stepIdle
	// stepRetry picked a warp whose load failed a structural check;
	// until the next event it fails the same way every cycle.
	stepRetry
)

// GPU simulates one SM and its memory hierarchy for one kernel under
// one scheduling controller.
type GPU struct {
	cfg    Config
	kernel *workload.Kernel
	ctrl   Controller

	l1    *cache.Cache
	vta   *cache.VTA
	l2c   *l2.L2
	mshr  *memory.MSHR
	respQ *memory.LatencyQueue
	smmt  *sharedmem.SMMT
	shc   *sharedmem.Cache // nil when no unused space / disabled

	warps []Warp
	// batches holds each warp's instruction batch (Warp.buf).
	batches  [][warpBatch]workload.Instruction
	barriers []int // waiting count per CTA
	// live holds the IDs of unfinished warps in ascending order, so
	// the deadlock release skips finished warps instead of filtering
	// the full warp array.
	live []int
	// gate[i] is warp i's nextReady while the warp is pickable, else
	// math.MaxUint64; pickable is the bitset of warps with a finite
	// gate. A warp is pickable when it is unfinished, not at a barrier,
	// under its MLP budget, and active or barrier-boosted (its CTA has
	// a warp waiting at a barrier, which all threads must reach).
	// refreshGate keeps both current wherever one of those inputs
	// changes, so pick reads nothing else.
	gate     []uint64
	pickable []uint64
	// greedy is the warp pick keeps issuing while its gate allows.
	greedy int
	// active counts unfinished warps whose V flag is set.
	active int
	// ctaLive tracks unfinished warps per CTA, replacing the all-warp
	// scan the barrier-release check used to do.
	ctaLive     []int
	warpsPerCTA int

	cycle         uint64
	instTotal     uint64
	vtaHitsTotal  uint64
	finished      int
	lastIssue     uint64
	deadlockFrees uint64
	structStalls  uint64
	// nextSample is the cycle of the next time-series sample
	// (maxUint64 when sampling is off), replacing a per-cycle modulo.
	nextSample uint64
	// dueCycle and dueInst are the controller's Due answer, read after
	// Attach and after every OnCycle call.
	dueCycle, dueInst uint64

	// last is what the latest Step did. After a quiet step (idle, or a
	// retry that failed a structural check) Run skips ahead to the next
	// event; retryWarp and retryMSHR say which retry to replay.
	last      stepKind
	retryWarp int
	retryMSHR bool

	imat *metrics.InterferenceMatrix
	ts   metrics.TimeSeries
	// sampling deltas
	sInst, sVTA uint64
	sL1Acc      uint64
	sL1Hit      uint64
}

// NewGPU wires an SM for the kernel under ctrl. A nil sharedL2 builds
// a private L2 from cfg.L2Config; passing one in lets multi-SM
// harnesses share it.
func NewGPU(cfg Config, kernel *workload.Kernel, ctrl Controller, sharedL2 *l2.L2) (*GPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec := kernel.Spec()
	if cfg.MaxCycles == 0 {
		cfg.MaxCycles = kernel.TotalInstructions() * 64
	}
	l2c := sharedL2
	if l2c == nil {
		l2c = l2.New(cfg.L2Config)
	}

	g := &GPU{
		cfg:    cfg,
		kernel: kernel,
		ctrl:   ctrl,
		l1:     cache.New(cfg.L1),
		vta:    cache.NewVTA(spec.NumWarps, cfg.VTAEntriesPerWarp),
		l2c:    l2c,
		mshr:   memory.NewMSHR(cfg.MSHREntries, cfg.MSHRMergeMax),
		respQ:  memory.NewLatencyQueue(cfg.ResponseQueueCap),
		smmt:   sharedmem.NewSMMT(cfg.SharedMemBytes, cfg.SMMTEntries),
		imat:   metrics.NewInterferenceMatrix(spec.NumWarps),
	}

	// Kernel shared-memory usage: one SMMT entry per CTA (§II-A).
	if spec.FsMem > 0 {
		total := int(spec.FsMem * float64(cfg.SharedMemBytes))
		per := total / spec.NumCTAs()
		if per > 0 {
			for cta := 0; cta < spec.NumCTAs(); cta++ {
				if _, err := g.smmt.Reserve(cta, per); err != nil {
					return nil, fmt.Errorf("sm: CTA shared memory: %w", err)
				}
			}
		}
	}
	// CIAO reserves the remaining space for its cache (§IV-B).
	if cfg.EnableSharedCache {
		base, size := g.smmt.LargestFreeRegion()
		if tr, err := sharedmem.NewTranslator(base, size); err == nil {
			if _, err := g.smmt.Reserve(sharedmem.CIAOReservationID, size); err != nil {
				return nil, fmt.Errorf("sm: CIAO reservation: %w", err)
			}
			g.shc = sharedmem.NewCache(tr)
		}
	}

	g.warps = make([]Warp, spec.NumWarps)
	g.batches = make([][warpBatch]workload.Instruction, spec.NumWarps)
	g.barriers = make([]int, spec.NumCTAs())
	g.live = make([]int, spec.NumWarps)
	g.ctaLive = make([]int, spec.NumCTAs())
	g.warpsPerCTA = spec.WarpsPerCTA
	// The gate exists before Attach, which may stall warps.
	g.gate = make([]uint64, spec.NumWarps)
	g.pickable = make([]uint64, (spec.NumWarps+63)/64)
	g.active = spec.NumWarps
	for i := range g.warps {
		g.warps[i] = Warp{
			ID:         i,
			CTA:        i / spec.WarpsPerCTA,
			v:          true,
			maxPending: cfg.MaxOutstandingLines,
			stream:     kernel.Stream(i),
			buf:        &g.batches[i],
		}
		g.live[i] = i
		g.ctaLive[i/spec.WarpsPerCTA]++
		g.refreshGate(i)
	}
	g.nextSample = ^uint64(0)
	if cfg.SampleInterval > 0 {
		g.nextSample = cfg.SampleInterval
	}
	ctrl.Attach(g)
	g.dueCycle, g.dueInst = ctrl.Due(g)
	return g, nil
}

// MustGPU is NewGPU that panics on error, for tests and examples.
func MustGPU(cfg Config, kernel *workload.Kernel, ctrl Controller, sharedL2 *l2.L2) *GPU {
	g, err := NewGPU(cfg, kernel, ctrl, sharedL2)
	if err != nil {
		panic(err)
	}
	return g
}

// Accessors used by controllers and the harness.

// NumWarps returns the resident warp count.
func (g *GPU) NumWarps() int { return len(g.warps) }

// Warp returns warp i's state. Controllers may flip I; V is set with
// SetActive, and the fields the issue gate reads are the GPU's alone.
func (g *GPU) Warp(i int) *Warp { return &g.warps[i] }

// SetActive sets warp wid's V flag: false stalls the warp, true
// reactivates it. It is the flag's only writer, so the issue gate and
// the active-warp count follow every throttling decision.
func (g *GPU) SetActive(wid int, v bool) {
	w := &g.warps[wid]
	if w.v == v {
		return
	}
	w.v = v
	if !w.finished {
		if v {
			g.active++
		} else {
			g.active--
		}
	}
	g.refreshGate(wid)
}

// InstTotal returns total issued instructions (Inst-total of Fig. 6).
func (g *GPU) InstTotal() uint64 { return g.instTotal }

// ActiveWarps counts warps that are neither finished nor stalled.
func (g *GPU) ActiveWarps() int { return g.active }

// Kernel returns the running kernel.
func (g *GPU) Kernel() *workload.Kernel { return g.kernel }

// L2 exposes the L2/DRAM subsystem.
func (g *GPU) L2() *l2.L2 { return g.l2c }

// SharedCache returns the CIAO shared-memory cache, or nil.
func (g *GPU) SharedCache() *sharedmem.Cache { return g.shc }

// Interference exposes the inter-warp interference matrix.
func (g *GPU) Interference() *metrics.InterferenceMatrix { return g.imat }

// TimeSeries returns the sampled trace.
func (g *GPU) TimeSeries() *metrics.TimeSeries { return &g.ts }

// Done reports whether every warp finished.
func (g *GPU) Done() bool { return g.finished == len(g.warps) }

// Run simulates until completion or the cycle cap, returning the final
// statistics. It is event-driven: after a quiet cycle it jumps to the
// next cycle at which anything can change and applies the skipped
// cycles' effects in bulk, so its result is bit-identical to calling
// Step once per cycle.
func (g *GPU) Run() Result {
	for g.running() {
		if g.Step(); g.last != stepBusy {
			g.skipTo(g.nextStep())
		}
	}
	return g.Result()
}

// running reports whether the GPU has cycles left to simulate.
func (g *GPU) running() bool { return !g.Done() && g.cycle < g.cfg.MaxCycles }

// nextStep returns the first cycle, from g.cycle on, that needs a
// full Step. After a busy step, or while the controller's due
// instruction count has been reached, that is g.cycle itself. After a
// quiet step at now = g.cycle-1, every cycle repeats it until the
// earliest of: a fill becoming ready, the controller's due cycle, a
// sample, the cycle cap and, after an idle step, a warp's gate
// arriving or the deadlock valve expiring (only possible with nothing
// in flight).
func (g *GPU) nextStep() uint64 {
	next := g.cycle
	if g.last == stepBusy || g.instTotal >= g.dueInst {
		return next
	}
	now := next - 1
	w := min(g.cfg.MaxCycles, g.nextSample, g.dueCycle)
	if rc, ok := g.respQ.NextReady(); ok {
		w = min(w, rc)
	}
	if g.last == stepIdle {
		// Only a pickable warp's gate arriving ends an idle stretch, and
		// every gate lies past now, or pick would have issued.
		for _, r := range g.gate {
			w = min(w, r)
		}
		// A valve that fired at now without freeing anyone has nothing
		// left to free until a controller event; only a future expiry
		// is an event.
		if expiry := g.lastIssue + g.cfg.DeadlockWindow + 1; g.respQ.Len() == 0 && expiry > now {
			w = min(w, expiry)
		}
	}
	return max(w, next)
}

// skipTo advances the clock to cycle c (≥ g.cycle) without stepping,
// applying what the quiet cycles in between would have done: nothing
// after an idle step; after a failed retry, one more failed retry of
// the same warp per cycle.
func (g *GPU) skipTo(c uint64) {
	n := c - g.cycle
	if n == 0 {
		return
	}
	if g.last == stepRetry {
		g.structStalls += n
		if g.retryMSHR {
			g.mshr.NoteStalls(n)
		}
		g.warps[g.retryWarp].nextReady = c
		g.refreshGate(g.retryWarp)
		g.lastIssue = c - 1
	}
	g.cycle = c
}

// Step advances one cycle. It is the reference semantics Run
// fast-forwards over.
func (g *GPU) Step() {
	now := g.cycle

	// 1. Retire ready fills, each read in its queue slot. A response
	// queue with nothing due yet costs one key read.
	for g.respQ.Ready(now) {
		g.handleFill(g.respQ.Pop(now), now)
	}

	// 2. Controller epoch work, when due.
	if now >= g.dueCycle || g.instTotal >= g.dueInst {
		g.ctrl.OnCycle(g, now)
		g.dueCycle, g.dueInst = g.ctrl.Due(g)
	}

	// 3. Issue. A warp whose last load failed a structural check
	// re-checks it in place; only a load that now fits enters issue.
	if wid := g.pick(now); wid >= 0 {
		g.last = stepBusy // a structural stall downgrades it
		w := &g.warps[wid]
		if !w.retryPending || g.admit(w, int(w.pending().NAddr), g.memPath(wid), now) {
			g.issue(wid, now)
		}
		g.lastIssue = now
	} else {
		g.last = stepIdle // unless the valve below frees warps
		if g.respQ.Len() == 0 && now-g.lastIssue > g.cfg.DeadlockWindow {
			// Throttle deadlock: every unfinished warp is stalled (or
			// barrier-blocked behind a stalled warp) with nothing in
			// flight. Release the valves.
			g.freeStalledWarps(now)
		}
	}

	// 4. Sampling.
	if now == g.nextSample {
		g.sample(now)
		g.nextSample = now + g.cfg.SampleInterval
	}
	g.cycle++
}

// pick returns the warp to issue at cycle now, or -1 to idle, in the
// greedy-then-oldest order every scheduler of the paper uses (§V-A):
// the greedy warp while its gate has arrived, else the oldest
// (lowest-ID) warp whose gate has, which becomes the greedy warp. It
// reads only the issue gate, so throttling acts through the V flag,
// which the gate folds in: a stalled warp stays pickable only while its
// CTA has a warp waiting at a barrier, which all threads must reach.
// The fallback visits only the set bits of the pickable bitset.
func (g *GPU) pick(now uint64) int {
	if c := g.greedy; g.gate[c] <= now {
		return c
	}
	for wi, word := range g.pickable {
		for ; word != 0; word &= word - 1 {
			i := wi<<6 | bits.TrailingZeros64(word)
			if g.gate[i] <= now {
				g.greedy = i
				return i
			}
		}
	}
	return -1
}

// freeStalledWarps force-activates stalled warps after a deadlock
// window expires.
func (g *GPU) freeStalledWarps(now uint64) {
	freed := false
	for _, id := range g.live {
		if !g.warps[id].v {
			g.SetActive(id, true)
			freed = true
		}
	}
	if freed {
		g.deadlockFrees++
		g.lastIssue = now
		g.last = stepBusy
	}
}

// issue executes warp wid's next instruction at cycle now.
func (g *GPU) issue(wid int, now uint64) {
	w := &g.warps[wid]
	ins, ok := w.next()
	if !ok {
		g.finishWarp(wid)
		return
	}
	switch ins.Kind {
	case workload.Compute:
		w.nextReady = now + uint64(g.cfg.DependLatency)
		// Only nextReady moved, and the warp was picked because it is
		// pickable, so its gate is the new nextReady.
		g.gate[wid] = w.nextReady
	case workload.BarrierOp:
		g.arriveBarrier(wid, now)
	case workload.SharedOp:
		// Explicit shared access: bank conflicts serialise the access.
		lat := uint64(ins.Conflict)
		if lat == 0 {
			lat = 1
		}
		w.nextReady = now + lat + uint64(g.cfg.DependLatency) - 1
		g.gate[wid] = w.nextReady
	case workload.GlobalLoad:
		path := g.memPath(wid)
		if !g.admit(w, int(ins.NAddr), path, now) {
			w.retryPending = true
			return
		}
		g.load(w, ins.AddrSlice(), path, now)
		// The issue slot and address pipeline are occupied for a full
		// dependency distance even when fills are still in flight.
		if floor := now + uint64(g.cfg.DependLatency); w.nextReady < floor {
			w.nextReady = floor
		}
		// The load's fills may have used up the MLP budget.
		g.refreshGate(wid)
	case workload.GlobalStore:
		// A store holds no fill, so only nextReady moves.
		g.store(w, ins, g.memPath(wid), now)
		g.gate[wid] = w.nextReady
	}
	w.InstExecuted++
	g.instTotal++
	if w.drained() {
		g.finishWarp(wid)
	}
}

// probeVTA handles the lost-locality check on a miss.
func (g *GPU) probeVTA(w *Warp, addr memory.Addr, now uint64, atShared bool) {
	hit, evictor := g.vta.Probe(w.ID, addr)
	if !hit {
		return
	}
	w.VTAHits++
	g.vtaHitsTotal++
	g.sVTA++
	g.imat.Record(w.ID, evictor)
	g.ctrl.OnVTAHit(g, now, w.ID, evictor, atShared)
}

// memPath routes warp wid's next global access: the controller's
// answer, with the L1D path standing in for a missing shared-memory
// cache.
func (g *GPU) memPath(wid int) MemPath {
	path := g.ctrl.MemPath(g, wid)
	if path == PathSharedCache && g.shc == nil {
		return PathL1
	}
	return path
}

// admit reports whether the picked warp w can issue a load burst of n
// lines on path at now, so that a burst issues completely or not at
// all. It checks the MLP budget (the whole burst must fit beside the
// warp's in-flight fills), then the response queue, then, unless the
// path bypasses L1D, the MSHR. A burst that does not fit is a
// structural stall: the warp retries it next cycle, and until then Run
// may repeat the failure (see skipTo). A first issue and Step's
// in-place retry both decide here, so they cannot disagree.
func (g *GPU) admit(w *Warp, n int, path MemPath, now uint64) bool {
	mshrFull := false
	switch {
	case w.outstanding+n > g.cfg.MaxOutstandingLines,
		g.respQ.Len()+n > g.cfg.ResponseQueueCap:
	case path != PathBypass && g.mshr.Outstanding()+n > g.mshr.Capacity():
		mshrFull = true
		g.mshr.NoteStalls(1)
	default:
		return true
	}
	g.structStalls++
	w.nextReady = now + 1
	// Only nextReady moved, and the warp was picked because it is
	// pickable, so its gate is the new nextReady.
	g.gate[w.ID] = w.nextReady
	g.last, g.retryWarp, g.retryMSHR = stepRetry, w.ID, mshrFull
	return false
}

// load serves a global load of up to MaxFanout coalesced lines, once
// admit has let the burst issue.
func (g *GPU) load(w *Warp, addrs []memory.Addr, path MemPath, now uint64) {
	switch path {
	case PathBypass:
		for _, a := range addrs {
			g.bypass(w, a, now)
		}
	case PathSharedCache:
		g.loadShared(w, addrs, now)
	default:
		g.loadL1(w, addrs, now)
	}
}

// loadL1 serves a load through L1D. Each line probes the MSHR once;
// the entry or vacant slot Find returns serves the whole access.
func (g *GPU) loadL1(w *Warp, addrs []memory.Addr, now uint64) {
	misses := 0
	for _, a := range addrs {
		req := memory.Request{Addr: a, WarpID: w.ID}
		slot, e := g.mshr.Find(a)
		// Secondary access to an in-flight line: merge silently. It is
		// neither a hit nor a fresh miss, and it must not probe the
		// VTA (the line is coming; locality was not lost).
		if e != nil && !e.SharedValid && g.mshr.Merge(e, req) {
			w.outstanding++
			misses++
			continue
		}
		if g.l1.Access(a, w.ID, now, false) {
			continue
		}
		misses++
		g.probeVTA(w, a, now, false)
		g.fetch(w, req, slot, e, now, payloadL1)
	}
	if misses == 0 {
		w.nextReady = now + uint64(g.cfg.L1.HitLatency) + uint64(g.cfg.DependLatency) - 1
	}
}

// loadShared serves an isolated warp's load via the shared-memory
// cache, including the L1D→shared migration for coherence (§IV-B).
func (g *GPU) loadShared(w *Warp, addrs []memory.Addr, now uint64) {
	misses, migrations := 0, 0
	for _, a := range addrs {
		req := memory.Request{Addr: a, WarpID: w.ID}
		slot, e := g.mshr.Find(a)
		// Secondary access to an in-flight shared fill: merge silently.
		if e != nil && e.SharedValid && g.mshr.Merge(e, req) {
			w.outstanding++
			misses++
			continue
		}
		// Serialized L1D tag check first: a resident copy must migrate
		// so exactly one copy exists.
		if g.l1.Probe(a) {
			g.l1.Invalidate(a)
			g.fillShared(a, w.ID)
			g.shc.Access(a, w.ID) // counts the (now-hit) access
			migrations++
			continue
		}
		if g.shc.Access(a, w.ID) {
			continue
		}
		misses++
		g.probeVTA(w, a, now, true)
		if e = g.fetch(w, req, slot, e, now, payloadShared); e != nil {
			e.SharedValid = true
		}
	}
	switch {
	case misses > 0:
		// Blocked on fills; nextReady handled by wake.
	case migrations > 0:
		w.nextReady = now + uint64(g.cfg.MigrationPenalty) + uint64(g.cfg.DependLatency)
	default:
		w.nextReady = now + uint64(g.cfg.SharedHitLatency) + uint64(g.cfg.DependLatency) - 1
	}
}

// fetch sends a primary miss on req's line to the MSHR, given the
// entry e or vacant slot that Find returned for the line: it merges
// into an entry in flight, or inserts one and sends the request to L2
// with the given fill payload. It returns the entry, or nil when the
// entry's merge list is full or no entry is free; the line is then
// fetched with bypass, without an MSHR slot.
func (g *GPU) fetch(w *Warp, req memory.Request, slot int, e *memory.MSHREntry, now uint64, payload uint8) *memory.MSHREntry {
	if e != nil {
		if !g.mshr.Merge(e, req) {
			e = nil
		}
	} else if e = g.mshr.Insert(slot, req); e != nil {
		done := g.l2c.Access(now, req.Addr, w.ID, false)
		if ev := g.respQ.Add(done); ev != nil {
			ev.Line, ev.WarpID, ev.Payload = req.Addr.LineAddr(), int32(w.ID), payload
		}
	}
	if e == nil {
		g.bypass(w, req.Addr, now)
		return nil
	}
	w.outstanding++
	return e
}

// bypass fetches addr's line from L2 without an MSHR entry; its fill
// only wakes the warp and allocates no cache line.
func (g *GPU) bypass(w *Warp, addr memory.Addr, now uint64) {
	done := g.l2c.Bypass(now, addr, false)
	if ev := g.respQ.Add(done); ev != nil {
		ev.Line, ev.WarpID, ev.Payload = addr.LineAddr(), int32(w.ID), payloadBypass
	}
	w.outstanding++
}

// fillShared installs a line into the shared cache, feeding evictions
// into the common VTA.
func (g *GPU) fillShared(addr memory.Addr, wid int) {
	evLine, evWID, evicted := g.shc.Fill(addr, wid)
	if evicted && evWID != wid {
		g.vta.Insert(evWID, evLine, wid)
	}
}

// store serves a global store (write-through, non-blocking).
func (g *GPU) store(w *Warp, ins *workload.Instruction, path MemPath, now uint64) {
	for _, a := range ins.AddrSlice() {
		switch path {
		case PathSharedCache:
			if g.l1.Probe(a) {
				g.l1.Invalidate(a)
			}
			if g.shc.Probe(a) {
				g.fillShared(a, w.ID) // update in place
			}
		case PathBypass:
			// No L1 interaction at all.
		default:
			g.l1.Access(a, w.ID, now, true)
		}
		// Write-through to L2 consumes bandwidth off the critical path.
		g.l2c.Access(now, a, w.ID, true)
	}
	w.nextReady = now + uint64(g.cfg.DependLatency)
}

// handleFill retires one response-queue event, read in its slot.
func (g *GPU) handleFill(ev *memory.Event, now uint64) {
	wid := int(ev.WarpID)
	switch ev.Payload {
	case payloadBypass:
		g.wake(wid, now)
		return
	case payloadShared:
		entry := g.mshr.Fill(ev.Line)
		if entry == nil {
			return
		}
		g.fillShared(ev.Line, wid)
		for _, r := range entry.Merged {
			g.wake(r.WarpID, now)
		}
	default:
		entry := g.mshr.Fill(ev.Line)
		if entry == nil {
			return
		}
		evc, evicted := g.l1.Fill(ev.Line, wid, now)
		if evicted && evc.OwnerWID != wid {
			g.vta.Insert(evc.OwnerWID, evc.Line, wid)
		}
		for _, r := range entry.Merged {
			g.wake(r.WarpID, now)
		}
	}
}

// wake releases one in-flight line of a warp.
func (g *GPU) wake(wid int, now uint64) {
	w := &g.warps[wid]
	if w.outstanding > 0 {
		w.outstanding--
		// Only the fill that brings the warp back under its MLP budget
		// can make it pickable.
		if w.outstanding == w.maxPending-1 {
			g.refreshGate(wid)
		}
	}
}

// refreshGate recomputes warp wid's issue gate and pickable bit from
// its state (see GPU.gate).
func (g *GPU) refreshGate(wid int) {
	w := &g.warps[wid]
	bit := uint64(1) << (wid & 63)
	if !w.finished && !w.atBarrier && w.outstanding < w.maxPending && (w.v || g.barriers[w.CTA] > 0) {
		g.gate[wid] = w.nextReady
		g.pickable[wid>>6] |= bit
	} else {
		g.gate[wid] = math.MaxUint64
		g.pickable[wid>>6] &^= bit
	}
}

// ctaWarps returns the warp ID range [lo, hi) of a CTA: its warps
// occupy contiguous IDs.
func (g *GPU) ctaWarps(cta int) (lo, hi int) {
	return cta * g.warpsPerCTA, min((cta+1)*g.warpsPerCTA, len(g.warps))
}

// arriveBarrier processes a BarrierOp. Every warp of the CTA changes
// gate: the arriving one waits, and its stalled peers gain the barrier
// boost.
func (g *GPU) arriveBarrier(wid int, now uint64) {
	cta := g.warps[wid].CTA
	g.warps[wid].atBarrier = true
	g.barriers[cta]++
	if !g.maybeReleaseBarrier(cta, now) {
		lo, hi := g.ctaWarps(cta)
		for i := lo; i < hi; i++ {
			g.refreshGate(i)
		}
	}
}

// maybeReleaseBarrier opens the CTA barrier once all live warps
// arrived, touching only the CTA's warp range (the live count comes
// from the ctaLive table), and reports whether it did. The release
// ends the CTA's barrier boost, so every warp of the CTA changes gate.
func (g *GPU) maybeReleaseBarrier(cta int, now uint64) bool {
	if g.barriers[cta] < g.ctaLive[cta] {
		return false
	}
	g.barriers[cta] = 0
	lo, hi := g.ctaWarps(cta)
	for i := lo; i < hi; i++ {
		if g.warps[i].atBarrier {
			g.warps[i].atBarrier = false
			if g.warps[i].nextReady <= now {
				g.warps[i].nextReady = now + 1
			}
		}
		g.refreshGate(i)
	}
	return true
}

// finishWarp retires a warp and unblocks its CTA barrier if needed.
func (g *GPU) finishWarp(wid int) {
	w := &g.warps[wid]
	if w.finished {
		return
	}
	w.finished = true
	g.finished++
	g.ctaLive[w.CTA]--
	if w.v {
		g.active--
	}
	g.refreshGate(wid)
	for i, id := range g.live {
		if id == wid {
			g.live = append(g.live[:i], g.live[i+1:]...)
			break
		}
	}
	g.ctrl.OnWarpFinished(g, wid)
	g.maybeReleaseBarrier(w.CTA, g.cycle)
}

// sample records one time-series point.
func (g *GPU) sample(now uint64) {
	l1 := g.l1.Stats()
	dAcc := l1.Accesses - g.sL1Acc
	dHit := l1.Hits - g.sL1Hit
	hr := 0.0
	if dAcc > 0 {
		hr = float64(dHit) / float64(dAcc)
	}
	g.ts.Add(metrics.Sample{
		Cycle:        now,
		Instructions: g.instTotal,
		IPC:          float64(g.instTotal-g.sInst) / float64(g.cfg.SampleInterval),
		ActiveWarps:  g.ActiveWarps(),
		Interference: g.sVTA,
		L1HitRate:    hr,
	})
	g.sInst = g.instTotal
	g.sVTA = 0
	g.sL1Acc, g.sL1Hit = l1.Accesses, l1.Hits
}

// Result is the final report of one simulation.
type Result struct {
	Scheduler     string
	Benchmark     string
	Cycles        uint64
	Instructions  uint64
	IPC           float64
	L1            cache.Stats
	VTAHits       uint64
	SharedUtil    float64
	SharedStats   sharedmem.CacheStats
	DeadlockFrees uint64
	StructStalls  uint64
	FinishedWarps int
	TimedOut      bool
}

// Result snapshots the current statistics.
func (g *GPU) Result() Result {
	r := Result{
		Scheduler:     g.ctrl.Name(),
		Benchmark:     g.kernel.Spec().Name,
		Cycles:        g.cycle,
		Instructions:  g.instTotal,
		L1:            g.l1.Stats(),
		VTAHits:       g.vtaHitsTotal,
		DeadlockFrees: g.deadlockFrees,
		StructStalls:  g.structStalls,
		FinishedWarps: g.finished,
		TimedOut:      !g.Done() && g.cycle >= g.cfg.MaxCycles,
	}
	if g.cycle > 0 {
		r.IPC = float64(g.instTotal) / float64(g.cycle)
	}
	if g.shc != nil {
		r.SharedUtil = g.shc.Utilization()
		r.SharedStats = g.shc.Stats()
	}
	return r
}
