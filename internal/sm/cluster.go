package sm

import (
	"fmt"

	"repro/internal/l2"
	"repro/internal/workload"
)

// Cluster simulates several SMs sharing one L2/DRAM subsystem — the
// chip-level configuration of Table I (15 SMs). All SMs advance in
// lock-step within a single goroutine so the shared memory-side state
// stays deterministic; each SM runs its own kernel instance and its
// own controller.
//
// The single-SM GPU with a private (per-SM bandwidth share) L2 is the
// unit the paper-shape experiments use; the Cluster exists to check
// that conclusions survive chip-level sharing and to let ablations
// vary the SM count.
type Cluster struct {
	sms   []*GPU
	l2c   *l2.L2
	cycle uint64
}

// NewCluster builds n SMs over one shared L2. Each SM gets its own
// kernel instance (same spec, distinct streams via the SM index mixed
// into the seed) and a fresh controller from mk.
//
// The shared L2 is provisioned at full-chip bandwidth: the per-SM
// share baked into DefaultConfig's DRAM timing is undone by the
// cluster-level BandwidthMultiplier so that n SMs together see
// approximately the chip's aggregate bandwidth.
func NewCluster(n int, cfg Config, spec workload.Spec, mk func() Controller) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("sm: cluster needs at least one SM")
	}
	l2cfg := cfg.L2Config
	l2cfg.DRAM.BandwidthMultiplier *= n
	if l2cfg.DRAM.BandwidthMultiplier < 1 {
		l2cfg.DRAM.BandwidthMultiplier = n
	}
	shared := l2.New(l2cfg)

	c := &Cluster{l2c: shared}
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = spec.Seed ^ (uint64(i)+1)*0x9E3779B97F4A7C15
		kernel, err := workload.NewKernel(s)
		if err != nil {
			return nil, err
		}
		g, err := NewGPU(cfg, kernel, mk(), shared)
		if err != nil {
			return nil, err
		}
		c.sms = append(c.sms, g)
	}
	return c, nil
}

// L2 exposes the shared second-level cache.
func (c *Cluster) L2() *l2.L2 { return c.l2c }

// Done reports whether every SM finished.
func (c *Cluster) Done() bool {
	for _, g := range c.sms {
		if !g.Done() {
			return false
		}
	}
	return true
}

// Step advances every unfinished SM by one cycle, in SM order.
func (c *Cluster) Step() {
	for _, g := range c.sms {
		if g.running() {
			g.Step()
		}
	}
	c.cycle++
}

// Run simulates to completion and returns the per-SM results plus the
// aggregate chip IPC (sum of instructions over the longest SM's
// cycles). Like GPU.Run it fast-forwards, but only to the earliest
// cycle at which any running SM wakes: every running SM steps on that
// cycle, in SM order, so the shared L2 sees accesses in the same order
// as under Step.
func (c *Cluster) Run() (perSM []Result, chipIPC float64) {
	maxCycles := uint64(0)
	for _, g := range c.sms {
		if g.cfg.MaxCycles > maxCycles {
			maxCycles = g.cfg.MaxCycles
		}
	}
	for !c.Done() && c.cycle < maxCycles {
		c.Step()
		if c.Done() {
			break
		}
		// With no SM running, Step would only tick the clock to the cap.
		next := maxCycles
		for _, g := range c.sms {
			if g.running() {
				next = min(next, g.nextStep())
			}
		}
		for _, g := range c.sms {
			if g.running() {
				g.skipTo(next)
			}
		}
		c.cycle = next
	}
	var inst, cycles uint64
	for _, g := range c.sms {
		r := g.Result()
		perSM = append(perSM, r)
		inst += r.Instructions
		if r.Cycles > cycles {
			cycles = r.Cycles
		}
	}
	if cycles > 0 {
		chipIPC = float64(inst) / float64(cycles)
	}
	return perSM, chipIPC
}
