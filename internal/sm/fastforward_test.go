package sm_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sched"
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

// fastForwardControllers is every Fig 8 scheduler plus LRR, which never
// skips, and adaptive CIAO-C, whose epochs resize themselves.
func fastForwardControllers() []controllerCase {
	var cs []controllerCase
	for _, f := range harness.Schedulers() {
		cs = append(cs, controllerCase{f.Name, f.New, f.NeedsSharedCache})
	}
	return append(cs,
		controllerCase{"LRR", func() sm.Controller { return sched.NewLRR() }, false},
		controllerCase{"CIAO-C-adaptive", func() sm.Controller { return core.NewAdaptive(core.ModeC) }, true},
	)
}

// fastForwardConfig is the SM configuration of the differential tests.
// Its prime sample interval keeps sample wake-ups off the 1000-cycle
// CCWS and statPCAL epochs, so a NextEvent that misses an epoch shows.
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
			return fmt.Sprintf("%s differs:\n  Run  %+v\n  Step %+v", c.what, c.a, c.b)
		}
	}
	for i := 0; i < a.NumWarps(); i++ {
		if !reflect.DeepEqual(*a.Warp(i), *b.Warp(i)) {
			return fmt.Sprintf("warp %d differs:\n  Run  %+v\n  Step %+v", i, *a.Warp(i), *b.Warp(i))
		}
	}
	if !reflect.DeepEqual(a, b) {
		return "internal GPU state differs (MSHR, caches, queues or controller)"
	}
	return ""
}

// checkRunMatchesSteps simulates one cell through Run and through a
// per-cycle Step loop and fails on any difference.
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
