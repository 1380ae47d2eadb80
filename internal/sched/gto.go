// Package sched implements the baseline warp schedulers the CIAO paper
// compares against (§V-A): GTO (greedy-then-oldest with XOR set
// hashing), CCWS (cache-conscious wavefront scheduling), Best-SWL
// (best static wavefront limiting) and statPCAL (priority-based cache
// allocation with L1D bypassing). The CIAO schedulers themselves live
// in internal/core.
package sched

import "repro/internal/sm"

// GTO is the baseline greedy-then-oldest scheduler: maximum TLP, no
// cache awareness.
type GTO struct {
	sm.Base
	sm.GreedyThenOldest
}

// NewGTO returns a GTO controller.
func NewGTO() *GTO { return &GTO{} }

// Name implements sm.Controller.
func (s *GTO) Name() string { return "GTO" }

// NextEvent implements sm.Controller: GTO has no epochs, and its
// greedy pick repeats a failed retry until warp state changes.
func (s *GTO) NextEvent(*sm.GPU, uint64) uint64 { return sm.Never }

// LRR is a loose round-robin scheduler, provided as an extra baseline
// for ablations: warps issue in rotating order with no greediness. It
// keeps Base's NextEvent (never skip): its rotating pointer moves past
// a warp whose retry failed, so the next cycle may pick another.
type LRR struct {
	sm.Base
	next int
}

// NewLRR returns an LRR controller.
func NewLRR() *LRR { return &LRR{} }

// Name implements sm.Controller.
func (s *LRR) Name() string { return "LRR" }

// Pick implements sm.Controller.
func (s *LRR) Pick(g *sm.GPU, now uint64) int {
	n := g.NumWarps()
	for off := 0; off < n; off++ {
		i := (s.next + off) % n
		if g.Warp(i).Ready(now) {
			s.next = (i + 1) % n
			return i
		}
	}
	return -1
}
