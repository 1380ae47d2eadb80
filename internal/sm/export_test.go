package sm

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

// GateInputs returns the warp fields the issue gate reads.
func (w *Warp) GateInputs() (nextReady uint64, outstanding, maxPending int, atBarrier bool) {
	return w.nextReady, w.outstanding, w.maxPending, w.atBarrier
}
