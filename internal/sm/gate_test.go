package sm_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/workload"
)

// gateChecker recomputes the issue gate and the pick from scratch: from
// each warp's own fields and the GPU's greedy warp, never from the
// GPU's barrier counts, active count or gate.
type gateChecker struct {
	pending []bool // per CTA: a warp waits at the barrier
	ready   []bool // per warp: pickable, and its nextReady has arrived
}

// check compares every warp's gate and pickable bit, ActiveWarps and
// the GPU's pick at its current cycle with the recomputation,
// returning the first difference or "".
func (c *gateChecker) check(g *sm.GPU) string {
	c.pending = c.pending[:0]
	for i := 0; i < g.NumWarps(); i++ {
		w := g.Warp(i)
		for len(c.pending) <= w.CTA {
			c.pending = append(c.pending, false)
		}
		_, _, _, atBarrier := w.GateInputs()
		c.pending[w.CTA] = c.pending[w.CTA] || atBarrier
	}
	active := 0
	c.ready = c.ready[:0]
	for i := 0; i < g.NumWarps(); i++ {
		w := g.Warp(i)
		if !w.Finished() && w.Active() {
			active++
		}
		nextReady, outstanding, maxPending, atBarrier := w.GateInputs()
		pickable := !w.Finished() && !atBarrier && outstanding < max(maxPending, 1) &&
			(w.Active() || c.pending[w.CTA])
		want := uint64(math.MaxUint64)
		if pickable {
			want = nextReady
		}
		c.ready = append(c.ready, pickable && nextReady <= g.Cycle())
		if gate, bit := g.Gate(i); gate != want || bit != pickable {
			return fmt.Sprintf("cycle %d, warp %d: gate %d pickable %v, want %d %v (warp %+v)",
				g.Cycle(), i, gate, bit, want, pickable, *w)
		}
	}
	if got := g.ActiveWarps(); got != active {
		return fmt.Sprintf("cycle %d: ActiveWarps() = %d, recount %d", g.Cycle(), got, active)
	}
	// Greedy-then-oldest: the greedy warp while it is ready, else the
	// oldest ready warp.
	greedy, want := g.Greedy(), -1
	if c.ready[greedy] {
		want = greedy
	} else {
		for i, r := range c.ready {
			if r {
				want = i
				break
			}
		}
	}
	if got := g.PeekPick(); got != want {
		return fmt.Sprintf("cycle %d: pick %d, want %d (greedy warp %d)", g.Cycle(), got, want, greedy)
	}
	return ""
}

// runChecked simulates one cell to completion, one Step per cycle (or
// one Step and fast-forward per iteration, as Run does, with skip),
// checking the gate and the pick before every step.
func runChecked(t *testing.T, spec workload.Spec, c controllerCase, skip bool) {
	t.Helper()
	g := sm.MustGPU(fastForwardConfig(c.shared), workload.MustKernel(spec), c.mk(), nil)
	var gc gateChecker
	if d := gc.check(g); d != "" {
		t.Fatalf("%s on %s after Attach: %s", c.name, spec.Name, d)
	}
	for !g.Done() && g.Cycle() < g.Config().MaxCycles {
		if skip {
			g.StepSkip()
		} else {
			g.Step()
		}
		if d := gc.check(g); d != "" {
			t.Fatalf("%s on %s (skip %v): %s", c.name, spec.Name, skip, d)
		}
	}
	if !g.Done() {
		t.Fatalf("%s on %s timed out", c.name, spec.Name)
	}
}

// TestPickGate checks that the GPU keeps the issue gate, the pickable
// bitset and the active-warp count current through every input change
// (issue, retry, fill, barrier arrive and release, finish, throttling
// and the deadlock valve), and that its pick is greedy-then-oldest over
// them, under every controller, on the two barrier synthetics and on a
// compute-bound suite kernel.
func TestPickGate(t *testing.T) {
	var specs []workload.Spec
	for _, name := range append([]string{"Gaussian"}, barrierSynthetics...) {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.IsSynthetic(name) {
			s.InstrPerWarp = 2000
		}
		s.Seed = 7
		specs = append(specs, s)
	}
	for _, c := range fastForwardControllers() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			for _, spec := range specs {
				runChecked(t, spec, c, false)
				runChecked(t, spec, c, true)
			}
		})
	}
}

// FuzzPickGate runs the gate and pick check over fuzzed synthetic
// workloads: up to 128 warps, so the pickable bitset spans two words,
// with fuzzed CTA size, barrier period, shared-op share, class and
// controller.
func FuzzPickGate(f *testing.F) {
	f.Add(uint8(127), uint8(7), uint8(40), uint8(10), uint8(0), uint8(3), false)
	f.Add(uint8(63), uint8(3), uint8(9), uint8(0), uint8(2), uint8(5), true)
	f.Add(uint8(100), uint8(0), uint8(0), uint8(30), uint8(1), uint8(8), false)
	f.Fuzz(func(t *testing.T, warps, cta, barrier, sharedPct, class, ctrl uint8, skip bool) {
		ctaN := 1 + int(cta%16)
		warpsN := ctaN * (1 + int(warps)%(128/ctaN))
		name := fmt.Sprintf("synthetic:class=%s,warps=%d,cta=%d,instr=150,shared_pct=%d,barrier=%d,seed=%d",
			[]string{"LWS", "SWS", "CI"}[class%3], warpsN, ctaN, sharedPct%51, barrier, warps)
		spec, err := workload.ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cs := fastForwardControllers()
		runChecked(t, spec, cs[int(ctrl)%len(cs)], skip)
	})
}

func TestGTOGreedyThenOldest(t *testing.T) {
	g := sm.MustGPU(testConfig(), workload.MustKernel(tinySpec()), sched.NewGTO(), nil)

	// First pick with everyone ready: the oldest (lowest ID) warp.
	if got := g.Pick(); got != 0 {
		t.Fatalf("first pick = %d, want oldest warp 0", got)
	}
	// The oldest warp stalls: the next-oldest becomes the greedy warp.
	g.SetActive(0, false)
	if got := g.Pick(); got != 1 {
		t.Fatalf("pick = %d, want next-oldest 1", got)
	}
	// While warp 1 stays ready it is re-picked, even though the older
	// warp 0 becomes ready again.
	g.SetActive(0, true)
	if got := g.Pick(); got != 1 {
		t.Fatalf("greedy pick = %d, want greedy warp 1", got)
	}
	// The greedy warp stalls: fall back to the oldest ready warp.
	g.SetActive(1, false)
	if got := g.Pick(); got != 0 {
		t.Fatalf("fallback pick = %d, want oldest 0", got)
	}
}
