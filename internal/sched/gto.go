// Package sched implements the baseline warp schedulers the CIAO paper
// compares against (§V-A): GTO (greedy-then-oldest with XOR set
// hashing), CCWS (cache-conscious wavefront scheduling), Best-SWL
// (best static wavefront limiting) and statPCAL (priority-based cache
// allocation with L1D bypassing). The CIAO schedulers themselves live
// in internal/core.
package sched

import "repro/internal/sm"

// GTO is the baseline greedy-then-oldest scheduler: maximum TLP, no
// cache awareness. The GPU issues in GTO order itself, so GTO adds
// only its name and its lack of epochs.
type GTO struct{ sm.Base }

// NewGTO returns a GTO controller.
func NewGTO() *GTO { return &GTO{} }

// Name implements sm.Controller.
func (s *GTO) Name() string { return "GTO" }

// Due implements sm.Controller: GTO has no epochs.
func (s *GTO) Due(*sm.GPU) (cycle, inst uint64) { return sm.Never, sm.Never }
