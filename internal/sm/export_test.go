package sm

import (
	"repro/internal/cache"
	"repro/internal/sharedmem"
)

// Cycle returns the current cycle.
func (g *GPU) Cycle() uint64 { return g.cycle }

// Config returns the SM configuration.
func (g *GPU) Config() Config { return g.cfg }

// L1 returns the L1D cache.
func (g *GPU) L1() *cache.Cache { return g.l1 }

// SMMT returns the shared-memory management table.
func (g *GPU) SMMT() *sharedmem.SMMT { return g.smmt }

// NumSMs returns the SM count.
func (c *Cluster) NumSMs() int { return len(c.sms) }

// SM returns the i-th SM.
func (c *Cluster) SM(i int) *GPU { return c.sms[i] }

// Gate reports warp i's issue gate and pickable bit.
func (g *GPU) Gate(i int) (gate uint64, pickable bool) {
	return g.gate[i], g.pickable[i>>6]&(1<<(i&63)) != 0
}

// StepSkip performs one iteration of Run's loop: a Step, then the
// fast-forward to the next cycle that needs one.
func (g *GPU) StepSkip() {
	g.Step()
	g.skipTo(g.nextStep())
}

// Pick returns the warp pick chooses at the current cycle, or -1,
// moving the greedy warp as the pick inside Step does.
func (g *GPU) Pick() int { return g.pick(g.cycle) }

// PeekPick returns what Pick would, leaving the greedy warp alone.
func (g *GPU) PeekPick() int {
	defer func(greedy int) { g.greedy = greedy }(g.greedy)
	return g.Pick()
}

// Greedy returns the warp pick keeps while its gate has arrived.
func (g *GPU) Greedy() int { return g.greedy }

// SetController replaces the GPU's controller and re-reads its Due.
func (g *GPU) SetController(c Controller) {
	g.ctrl = c
	g.dueCycle, g.dueInst = c.Due(g)
}

// GateInputs returns the warp fields the issue gate reads.
func (w *Warp) GateInputs() (nextReady uint64, outstanding, maxPending int, atBarrier bool) {
	return w.nextReady, w.outstanding, w.maxPending, w.atBarrier
}

// MSHRStalls returns how many issue attempts the MSHR refused.
func (g *GPU) MSHRStalls() uint64 {
	_, _, stalls := g.mshr.Stats()
	return stalls
}
