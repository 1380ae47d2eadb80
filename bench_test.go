// Package repro's benchmark suite times what no test or bench/
// workload already runs: the cell hot path (BenchmarkCellRun, which
// cmd/benchgate gates, and the allocation-free BenchmarkCellCycle), the
// Table I/II checks, the Fig 1a interference count, sweep expansion and
// the design ablations (run with `go test -bench=. -benchmem`). The
// figures are regenerated by tests instead: cmd/ciaosim's
// TestEveryExperimentBothForms builds every entry of the experiment
// table as text and as JSON and pins both, TestGoldenFigurePayloads
// pins fig8, fig11a/b and fig12a/b through service.Execute, and bench/
// times fig8. Simulation length is shortened (benchInstr) to keep the
// suite tractable; use cmd/ciaosim for full-length runs.
package repro_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// benchInstr is the per-warp instruction budget for benchmark runs.
const benchInstr = 1500

func benchOpt() harness.Options {
	return harness.Options{InstrPerWarp: benchInstr}
}

// BenchmarkTable1Config verifies and times construction of the Table I
// machine.
func BenchmarkTable1Config(b *testing.B) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		b.Fatal(err)
	}
	spec.InstrPerWarp = benchInstr
	for i := 0; i < b.N; i++ {
		cfg := sm.DefaultConfig()
		cfg.EnableSharedCache = true
		g := sm.MustGPU(cfg, workload.MustKernel(spec), core.NewC(), nil)
		if g.L1().Config().Sets() != 32 {
			b.Fatal("Table I L1D geometry wrong")
		}
	}
}

// BenchmarkTable2Characteristics regenerates the benchmark suite and
// checks the generated streams' memory intensity against the published
// APKI for every Table II entry.
func BenchmarkTable2Characteristics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, spec := range workload.Suite() {
			spec.InstrPerWarp = 2000
			s := workload.NewWarpStream(spec, 0)
			lines, total := 0, 0
			for {
				ins, ok := s.Next()
				if !ok {
					break
				}
				total++
				if ins.Kind == workload.GlobalLoad || ins.Kind == workload.GlobalStore {
					lines += int(ins.NAddr)
				}
			}
			if total == 0 || lines == 0 {
				b.Fatalf("%s generated no memory traffic", spec.Name)
			}
		}
	}
}

// BenchmarkFig1aInterferenceMatrix regenerates the Backprop inter-warp
// interference heatmap data.
func BenchmarkFig1aInterferenceMatrix(b *testing.B) {
	spec, err := workload.ByName("Backprop")
	if err != nil {
		b.Fatal(err)
	}
	gto, _ := harness.SchedulerByName("GTO")
	var total uint64
	for i := 0; i < b.N; i++ {
		_, g, err := harness.RunOne(spec, gto, benchOpt())
		if err != nil {
			b.Fatal(err)
		}
		total = g.Interference().Total()
	}
	b.ReportMetric(float64(total), "interference-events")
}

// BenchmarkCellRun measures the end-to-end cost of one sweep cell —
// kernel construction plus a full simulation — and reports the two
// headline hot-path numbers tracked across PRs in BENCH_PR<N>.json:
// cells/sec (how many cells one core sustains) and ns/cycle (the cost
// of one simulated cycle, skipped quiet cycles included). CCWS is the
// idle-heavy case for Run's fast-forward. Run with -benchmem to see the
// allocation trajectory; the steady-state cycle loop is expected to be
// allocation-free (see BenchmarkCellCycle and the internal/sm alloc
// regression test).
func BenchmarkCellRun(b *testing.B) {
	for _, sc := range []string{"GTO", "CCWS", "CIAO-C"} {
		b.Run(sc, func(b *testing.B) {
			spec, err := workload.ByName("SYRK")
			if err != nil {
				b.Fatal(err)
			}
			spec.InstrPerWarp = 2000
			f, err := harness.SchedulerByName(sc)
			if err != nil {
				b.Fatal(err)
			}
			var cycles uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, _, err := harness.RunOne(spec, f, harness.Options{})
				if err != nil {
					b.Fatal(err)
				}
				cycles += r.Cycles
			}
			sec := b.Elapsed().Seconds()
			if sec > 0 {
				b.ReportMetric(float64(b.N)/sec, "cells/sec")
			}
			if cycles > 0 {
				b.ReportMetric(sec*1e9/float64(cycles), "ns/cycle")
			}
		})
	}
}

// BenchmarkCellCycle times one steady-state simulated cycle: a GPU is
// built untimed and Step() is measured directly, so allocs/op is the
// per-cycle allocation count on the hot path (gated at 0 in CI).
func BenchmarkCellCycle(b *testing.B) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		b.Fatal(err)
	}
	spec.InstrPerWarp = 2000
	cfg := sm.DefaultConfig()
	cfg.SampleInterval = 0 // measure the pure cycle path
	newGPU := func() *sm.GPU {
		return sm.MustGPU(cfg, workload.MustKernel(spec), sched.NewGTO(), nil)
	}
	g := newGPU()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if g.Done() || g.Cycle() >= g.Config().MaxCycles {
			b.StopTimer()
			g = newGPU()
			b.StartTimer()
		}
		g.Step()
	}
}

// --- Sweep expansion ---

// sweepSpec is the grid BenchmarkSweepExpansion expands: 7 schedulers
// × 21 benchmarks × 4 configurations = 588 cells.
func sweepSpec() sweep.Spec {
	return sweep.Spec{
		Name: "bench",
		Axes: sweep.Axes{
			Configs: []sweep.Config{
				{Name: "base"},
				{Name: "l1-32k", Override: harness.Override{L1SizeKB: 32, L1Ways: 8}},
				{Name: "w24", Override: harness.Override{WarpsPerSM: 24}},
				{Name: "bw2x", Override: harness.Override{DRAMBandwidthX: 2}},
			},
		},
	}
}

// BenchmarkSweepExpansion measures declarative-spec expansion —
// validation, config cross product and content addressing for every
// cell — the setup cost every sweep pays before simulating.
func BenchmarkSweepExpansion(b *testing.B) {
	spec := sweepSpec()
	var n int
	for i := 0; i < b.N; i++ {
		cells, err := spec.Expand()
		if err != nil {
			b.Fatal(err)
		}
		n = len(cells)
	}
	b.ReportMetric(float64(n), "cells")
}

// --- Ablations (the paper's baseline and CIAO design choices) ---

// BenchmarkAblationXORHashing compares modulo vs XOR set indexing
// under GTO: the XOR hash is the baseline enhancement the paper adds.
func BenchmarkAblationXORHashing(b *testing.B) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		b.Fatal(err)
	}
	spec.InstrPerWarp = benchInstr
	var xor, mod float64
	for i := 0; i < b.N; i++ {
		cfg := sm.DefaultConfig()
		rx := sm.MustGPU(cfg, workload.MustKernel(spec), sched.NewGTO(), nil).Run()
		cfg2 := sm.DefaultConfig()
		cfg2.L1.UseXORHash = false
		rm := sm.MustGPU(cfg2, workload.MustKernel(spec), sched.NewGTO(), nil).Run()
		xor, mod = rx.IPC, rm.IPC
	}
	b.ReportMetric(xor/mod, "xor-over-modulo")
}

// BenchmarkAblationVTADepth compares the paper's 8-entry VTA against
// CCWS's 16 entries under CIAO-C.
func BenchmarkAblationVTADepth(b *testing.B) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		b.Fatal(err)
	}
	spec.InstrPerWarp = benchInstr
	var d8, d16 float64
	for i := 0; i < b.N; i++ {
		for _, depth := range []int{8, 16} {
			cfg := sm.DefaultConfig()
			cfg.EnableSharedCache = true
			cfg.VTAEntriesPerWarp = depth
			r := sm.MustGPU(cfg, workload.MustKernel(spec), core.NewC(), nil).Run()
			if depth == 8 {
				d8 = r.IPC
			} else {
				d16 = r.IPC
			}
		}
	}
	b.ReportMetric(d8/d16, "vta8-over-vta16")
}

// BenchmarkAblationMigration toggles the L1D→shared migration path by
// zeroing the penalty, quantifying the §IV-B coherence optimisation.
func BenchmarkAblationMigration(b *testing.B) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		b.Fatal(err)
	}
	spec.InstrPerWarp = benchInstr
	for i := 0; i < b.N; i++ {
		cfg := sm.DefaultConfig()
		cfg.EnableSharedCache = true
		cfg.MigrationPenalty = 20 // pessimistic: migration via DRAM-ish path
		slow := sm.MustGPU(cfg, workload.MustKernel(spec), core.NewC(), nil).Run()
		cfg.MigrationPenalty = 3
		fast := sm.MustGPU(cfg, workload.MustKernel(spec), core.NewC(), nil).Run()
		b.ReportMetric(fast.IPC/slow.IPC, "fast-over-slow-migration")
	}
}

// BenchmarkAblationSharedStallFactor sweeps the CIAO-C stall gate.
func BenchmarkAblationSharedStallFactor(b *testing.B) {
	spec, err := workload.ByName("KMN")
	if err != nil {
		b.Fatal(err)
	}
	spec.InstrPerWarp = benchInstr
	for i := 0; i < b.N; i++ {
		for _, f := range []float64{1, 4} {
			p := core.DefaultParams()
			p.SharedStallFactor = f
			cfg := sm.DefaultConfig()
			cfg.EnableSharedCache = true
			r := sm.MustGPU(cfg, workload.MustKernel(spec), core.New(core.ModeC, p), nil).Run()
			if f == 1 {
				b.ReportMetric(r.IPC, "ipc-factor1")
			} else {
				b.ReportMetric(r.IPC, "ipc-factor4")
			}
		}
	}
}
