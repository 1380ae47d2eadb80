package sm_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sm"
	"repro/internal/workload"
)

// controllerCase names a controller factory and whether it needs the
// CIAO shared-memory cache.
type controllerCase struct {
	name   string
	mk     func() sm.Controller
	shared bool
}

// baseOnly is the GPU's own GTO order with sm.Base's hooks, due every
// cycle: its OnCycle runs every cycle, so Run never skips.
type baseOnly struct{ sm.Base }

func (baseOnly) Name() string { return "Base" }

func (baseOnly) Due(*sm.GPU) (cycle, inst uint64) { return 0, 0 }

// resizer times its own epochs and changes their length as it runs:
// each epoch ends at a cycle or an instruction count, whichever comes
// first, both derived from the instructions issued so far. At every
// epoch boundary it stalls a different third of the warps and
// reactivates the rest, so Due moves by a different amount each epoch
// and the issue gate changes with it.
type resizer struct {
	sm.Base
	epochs            int
	nextCycle, nextIn uint64
}

func (*resizer) Name() string { return "Resizer" }

func (r *resizer) Due(*sm.GPU) (cycle, inst uint64) { return r.nextCycle, r.nextIn }

func (r *resizer) OnCycle(g *sm.GPU, now uint64) {
	inst := g.InstTotal()
	if now < r.nextCycle && inst < r.nextIn {
		return
	}
	r.epochs++
	for w := 0; w < g.NumWarps(); w++ {
		g.SetActive(w, (w+r.epochs)%3 != 0)
	}
	r.nextCycle = now + 50 + inst%450
	r.nextIn = inst + 100 + uint64(r.epochs%7)*60
}

// fastForwardControllers is every Fig 8 scheduler plus baseOnly, which
// never skips, and the resizer, whose epochs resize themselves. The
// resizer stays at index 8, the controller FuzzPickGate's third seed
// picks.
func fastForwardControllers() []controllerCase {
	var cs []controllerCase
	for _, f := range harness.Schedulers() {
		cs = append(cs, controllerCase{f.Name, f.New, f.NeedsSharedCache})
	}
	return append(cs,
		controllerCase{"Base", func() sm.Controller { return baseOnly{} }, false},
		controllerCase{"Resizer", func() sm.Controller { return &resizer{} }, false},
	)
}

// fastForwardConfig is the SM configuration of the differential tests.
// Its prime sample interval keeps sample wake-ups off the 1000-cycle
// CCWS and statPCAL epochs, so a Due that misses an epoch shows.
func fastForwardConfig(shared bool) sm.Config {
	cfg := sm.DefaultConfig()
	cfg.SampleInterval = 997
	cfg.EnableSharedCache = shared
	return cfg
}

// stepLoop is the reference for GPU.Run: one Step per simulated cycle.
func stepLoop(g *sm.GPU) {
	for !g.Done() && g.Cycle() < g.Config().MaxCycles {
		g.Step()
	}
}

// diffGPUs reports the first difference between two GPUs that ran the
// same cell, or "" when they agree on everything, internal state
// included.
func diffGPUs(a, b *sm.GPU) string {
	if d := diffReports(a, b); d != "" {
		return d
	}
	if !reflect.DeepEqual(a, b) {
		return "internal GPU state differs (MSHR, caches, queues or controller)"
	}
	return ""
}

// diffReports reports the first difference in what two GPUs report
// (result, time series, interference matrix, L2 and DRAM stats, every
// warp), or "" when they agree.
func diffReports(a, b *sm.GPU) string {
	for _, c := range []struct {
		what string
		a, b any
	}{
		{"Result", a.Result(), b.Result()},
		{"time series", a.TimeSeries().Samples, b.TimeSeries().Samples},
		{"interference matrix", a.Interference(), b.Interference()},
		{"L2 stats", a.L2().Stats(), b.L2().Stats()},
		{"DRAM stats", a.L2().DRAM().Stats(), b.L2().DRAM().Stats()},
	} {
		if !reflect.DeepEqual(c.a, c.b) {
			return fmt.Sprintf("%s differs:\n  %+v\n  %+v", c.what, c.a, c.b)
		}
	}
	for i := 0; i < a.NumWarps(); i++ {
		if !reflect.DeepEqual(*a.Warp(i), *b.Warp(i)) {
			return fmt.Sprintf("warp %d differs:\n  %+v\n  %+v", i, *a.Warp(i), *b.Warp(i))
		}
	}
	return ""
}

// checkRunMatchesSteps simulates one cell through Run and through a
// per-cycle Step loop and fails on any difference (Run's side first).
func checkRunMatchesSteps(t *testing.T, spec workload.Spec, cfg sm.Config, mk func() sm.Controller) sm.Result {
	t.Helper()
	run := sm.MustGPU(cfg, workload.MustKernel(spec), mk(), nil)
	r := run.Run()
	ref := sm.MustGPU(cfg, workload.MustKernel(spec), mk(), nil)
	stepLoop(ref)
	if d := diffGPUs(run, ref); d != "" {
		t.Fatal(d)
	}
	return r
}

// barrierSynthetics are two workloads with CTA barriers and explicit
// shared-memory operations.
var barrierSynthetics = []string{
	"synthetic:class=SWS,warps=16,cta=4,instr=600,shared_pct=10,conflict=4,barrier=80,seed=3",
	"synthetic:class=LWS,warps=24,cta=8,instr=500,shared_pct=5,barrier=120,fsmem=0.25,nwrp=4,seed=5",
}

// TestRunMatchesStepLoop pins the fast-forward as bit-exact: every
// Fig 8 benchmark (and two barrier synthetics with explicit shared
// memory operations) under every controller ends in exactly the state a
// per-cycle Step loop reaches.
func TestRunMatchesStepLoop(t *testing.T) {
	specs := workload.Suite()
	for _, name := range barrierSynthetics {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		specs = append(specs, s)
	}
	for _, c := range fastForwardControllers() {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := fastForwardConfig(c.shared)
			for _, spec := range specs {
				if !workload.IsSynthetic(spec.Name) {
					spec.InstrPerWarp = 200
				}
				spec.Seed = 7
				if r := checkRunMatchesSteps(t, spec, cfg, c.mk); r.TimedOut {
					t.Fatalf("%s timed out", spec.Name)
				}
			}
		})
	}
}

// TestRunMatchesStepLoopEdges covers the fast-forward's boundaries:
// cycle caps that cut runs inside skipped stretches, CIAO epochs that
// fall due every cycle, and an idle stretch that ends only at the
// deadlock valve.
func TestRunMatchesStepLoopEdges(t *testing.T) {
	spec := tinySpec()
	for _, c := range fastForwardControllers() {
		for _, limit := range []uint64{1001, 2503, 4999} {
			cfg := fastForwardConfig(c.shared)
			cfg.MaxCycles = limit
			if r := checkRunMatchesSteps(t, spec, cfg, c.mk); !r.TimedOut || r.Cycles != limit {
				t.Fatalf("%s: capped run = %d cycles (timed out %v), want cut at %d", c.name, r.Cycles, r.TimedOut, limit)
			}
		}
	}

	// A zero-length CIAO epoch runs on every cycle, so nothing may skip.
	checkRunMatchesSteps(t, spec, fastForwardConfig(false), func() sm.Controller {
		p := core.DefaultParams()
		p.LowEpoch = 0
		return core.New(core.ModeT, p)
	})

	spec.InstrPerWarp = 50
	cfg := fastForwardConfig(false)
	cfg.DeadlockWindow = 100
	r := checkRunMatchesSteps(t, spec, cfg, func() sm.Controller { return &stallEverything{} })
	if r.DeadlockFrees == 0 || r.FinishedWarps != spec.NumWarps {
		t.Fatalf("valve run: %d frees, %d/%d warps finished", r.DeadlockFrees, r.FinishedWarps, spec.NumWarps)
	}
}

// TestClusterRunMatchesStepLoop checks the cluster fast-forward against
// a per-cycle Cluster.Step loop on one and three SMs sharing an L2.
func TestClusterRunMatchesStepLoop(t *testing.T) {
	spec := tinySpec()
	spec.InstrPerWarp = 400
	for _, n := range []int{1, 3} {
		for _, c := range fastForwardControllers() {
			cfg := fastForwardConfig(c.shared)
			build := func() *sm.Cluster {
				cl, err := sm.NewCluster(n, cfg, spec, c.mk)
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			run := build()
			run.Run()
			ref := build()
			maxCycles := uint64(0)
			for i := 0; i < ref.NumSMs(); i++ {
				maxCycles = max(maxCycles, ref.SM(i).Config().MaxCycles)
			}
			for cycle := uint64(0); !ref.Done() && cycle < maxCycles; cycle++ {
				ref.Step()
			}
			for i := 0; i < n; i++ {
				if d := diffGPUs(run.SM(i), ref.SM(i)); d != "" {
					t.Fatalf("%d SMs, %s, SM %d: %s", n, c.name, i, d)
				}
			}
			if !reflect.DeepEqual(run, ref) {
				t.Fatalf("%d SMs, %s: cluster state differs", n, c.name)
			}
		}
	}
}

// dueEveryCycle wraps a controller so that it is due every cycle: the
// GPU calls OnCycle on every step, and Run never skips.
type dueEveryCycle struct{ sm.Controller }

func (dueEveryCycle) Due(*sm.GPU) (cycle, inst uint64) { return 0, 0 }

// TestDueIsExact pins each controller's Due: a run that calls OnCycle
// only when Due says so, and skips to the due cycle, ends in exactly
// the state of a run that calls OnCycle on every cycle and never skips,
// the controller's own state included. Every Fig 8 scheduler, the
// resizer (whose OnCycle resizes its epoch) and CIAO-T with a
// zero-length epoch run on the two barrier synthetics and three Table
// II benchmarks, one per class. TestRunMatchesStepLoop cannot show
// this, because both of its sides read Due.
func TestDueIsExact(t *testing.T) {
	var specs []workload.Spec
	for _, name := range append([]string{"ATAX", "SYRK", "Backprop"}, barrierSynthetics...) {
		s, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if !workload.IsSynthetic(name) {
			s.InstrPerWarp = 1000
		}
		s.Seed = 7
		specs = append(specs, s)
	}
	cs := append(fastForwardControllers(), controllerCase{"CIAO-T-zero-epoch", func() sm.Controller {
		p := core.DefaultParams()
		p.LowEpoch = 0
		return core.New(core.ModeT, p)
	}, false})
	for _, c := range cs {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := fastForwardConfig(c.shared)
			for _, spec := range specs {
				plain := sm.MustGPU(cfg, workload.MustKernel(spec), c.mk(), nil)
				plain.Run()
				inner := c.mk()
				every := sm.MustGPU(cfg, workload.MustKernel(spec), dueEveryCycle{inner}, nil)
				every.Run()
				// Unwrapped, the two GPUs compare field by field.
				every.SetController(inner)
				if d := diffGPUs(plain, every); d != "" {
					t.Fatalf("%s: due-gated run (first) and every-cycle run differ: %s", spec.Name, d)
				}
			}
		})
	}
}

// TestRetryStallCounts pins the structural-stall and MSHR-stall counts
// of every Fig 8 scheduler on an LWS and an SWS benchmark (statPCAL's
// bypass path included). A picked warp whose load failed re-checks it
// in place, and Run repeats failed retries in bulk; both must record
// exactly what a failed first issue records. The golden CellResults
// carry neither count, so nothing else pins them.
func TestRetryStallCounts(t *testing.T) {
	want := []struct {
		bench, sched               string
		cycles, structStalls, mshr uint64
	}{
		{"KMN", "GTO", 366791, 316017, 240280},
		{"KMN", "CCWS", 466652, 342839, 167859},
		{"KMN", "Best-SWL", 393786, 320504, 170250},
		{"KMN", "statPCAL", 295730, 244582, 94136},
		{"KMN", "CIAO-T", 366256, 314583, 235060},
		{"KMN", "CIAO-P", 358335, 307620, 232880},
		{"KMN", "CIAO-C", 363107, 312355, 232688},
		{"SYRK", "GTO", 388784, 337885, 315111},
		{"SYRK", "CCWS", 331486, 116690, 42330},
		{"SYRK", "Best-SWL", 389672, 338809, 315174},
		{"SYRK", "statPCAL", 387162, 336273, 315297},
		{"SYRK", "CIAO-T", 394410, 337935, 309944},
		{"SYRK", "CIAO-P", 324381, 273576, 255121},
		{"SYRK", "CIAO-C", 340568, 289618, 267850},
	}
	for _, w := range want {
		spec, err := workload.ByName(w.bench)
		if err != nil {
			t.Fatal(err)
		}
		spec.InstrPerWarp, spec.Seed = 1000, 7
		f, err := harness.SchedulerByName(w.sched)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sm.DefaultConfig()
		cfg.EnableSharedCache = f.NeedsSharedCache
		g := sm.MustGPU(cfg, workload.MustKernel(spec), f.New(), nil)
		r := g.Run()
		if r.Cycles != w.cycles || r.StructStalls != w.structStalls || g.MSHRStalls() != w.mshr {
			t.Errorf("%s/%s: %d cycles, %d structural stalls, %d MSHR stalls; want %d, %d, %d",
				w.bench, w.sched, r.Cycles, r.StructStalls, g.MSHRStalls(), w.cycles, w.structStalls, w.mshr)
		}
	}
}
