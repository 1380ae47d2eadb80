// Package repro's benchmark suite regenerates every table and figure
// of the CIAO paper's evaluation (run with `go test -bench=. -benchmem`).
// Each benchmark drives the corresponding experiment end-to-end and
// reports the headline quantities as custom metrics, so the paper's
// rows can be read straight from the -bench output. Simulation length
// is shortened (benchInstr) to keep the full suite tractable; use
// cmd/ciaosim for full-length runs.
package repro_test

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sm"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// benchInstr is the per-warp instruction budget for benchmark runs.
const benchInstr = 1500

func benchOpt() harness.Options {
	return harness.Options{InstrPerWarp: benchInstr}
}

// benchCells runs a figure's cells on a fresh engine, so no iteration
// is served from another's cache.
func benchCells() harness.CellRunner {
	return service.NewEngine(service.Config{}).CellRunner(service.OptionSpec{InstrPerWarp: benchInstr})
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

// BenchmarkFig1b regenerates the Backprop Best-SWL vs CCWS comparison.
func BenchmarkFig1b(b *testing.B) {
	var res *harness.Fig1bResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig1b(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.IPC["Best-SWL"]/res.IPC["CCWS"], "bestswl-over-ccws")
}

// BenchmarkFig4 regenerates the interference-skew study.
func BenchmarkFig4(b *testing.B) {
	var res *harness.Fig4Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig4(benchOpt())
		if err != nil {
			b.Fatal(err)
		}
	}
	mm := res.WorkloadMinMax[res.Bench]
	b.ReportMetric(float64(mm[1]), "max-pair-interference")
}

// BenchmarkFig8aIPC regenerates the headline scheduler comparison and
// reports the geometric-mean normalized IPCs.
func BenchmarkFig8aIPC(b *testing.B) {
	var res *harness.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig8(benchCells())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.OverallGeoMean["CCWS"], "ccws-vs-gto")
	b.ReportMetric(res.OverallGeoMean["Best-SWL"], "bestswl-vs-gto")
	b.ReportMetric(res.OverallGeoMean["statPCAL"], "statpcal-vs-gto")
	b.ReportMetric(res.OverallGeoMean["CIAO-T"], "ciaot-vs-gto")
	b.ReportMetric(res.OverallGeoMean["CIAO-P"], "ciaop-vs-gto")
	b.ReportMetric(res.OverallGeoMean["CIAO-C"], "ciaoc-vs-gto")
}

// BenchmarkFig8bSharedMemUtilization reports the CIAO shared-memory
// cache utilization per class.
func BenchmarkFig8bSharedMemUtilization(b *testing.B) {
	var res *harness.Fig8Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig8(benchCells())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SharedUtil[workload.LWS], "util-lws")
	b.ReportMetric(res.SharedUtil[workload.SWS], "util-sws")
	b.ReportMetric(res.SharedUtil[workload.CI], "util-ci")
}

// BenchmarkFig9TimeSeries regenerates the ATAX/Backprop dynamic traces.
func BenchmarkFig9TimeSeries(b *testing.B) {
	opt := benchOpt()
	opt.SampleInterval = 1000
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"ATAX", "Backprop"} {
			if _, err := harness.RunTimeSeries(bench, []string{"Best-SWL", "CCWS", "CIAO-T"}, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig10TimeSeries regenerates the SYRK/KMN CIAO-variant traces.
func BenchmarkFig10TimeSeries(b *testing.B) {
	opt := benchOpt()
	opt.SampleInterval = 1000
	for i := 0; i < b.N; i++ {
		for _, bench := range []string{"SYRK", "KMN"} {
			if _, err := harness.RunTimeSeries(bench, []string{"CIAO-T", "CIAO-P", "CIAO-C"}, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig11aEpochSensitivity sweeps the high-cutoff epoch.
func BenchmarkFig11aEpochSensitivity(b *testing.B) {
	var res *harness.SensitivityResult
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunEpochSensitivity([]uint64{1000, 5000, 10000, 50000}, benchCells())
		if err != nil {
			b.Fatal(err)
		}
	}
	// Spread across epoch values should stay modest (paper: ≤ ~15%).
	lo, hi := 10.0, 0.0
	for _, row := range res.Normalized {
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	b.ReportMetric(hi-lo, "ipc-spread")
}

// BenchmarkFig11bCutoffSensitivity sweeps the high-cutoff threshold.
func BenchmarkFig11bCutoffSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := harness.RunCutoffSensitivity([]float64{0.04, 0.02, 0.01, 0.005}, benchCells()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12aCacheConfigs regenerates the L1D configuration study.
func BenchmarkFig12aCacheConfigs(b *testing.B) {
	var res *harness.Fig12Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig12a(benchCells())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GeoMean["GTO-cap"], "gtocap-vs-gto")
	b.ReportMetric(res.GeoMean["GTO-8way"], "gto8way-vs-gto")
	b.ReportMetric(res.GeoMean["CIAO-C"], "ciaoc-vs-gto")
}

// BenchmarkFig12bDRAMBandwidth regenerates the 2× bandwidth study.
func BenchmarkFig12bDRAMBandwidth(b *testing.B) {
	var res *harness.Fig12Result
	for i := 0; i < b.N; i++ {
		var err error
		res, err = harness.RunFig12b(benchCells())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.GeoMean["statPCAL-2X"], "statpcal2x-vs-gto")
	b.ReportMetric(res.GeoMean["CIAO-C-2X"], "ciaoc2x-vs-gto")
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

// BenchmarkSimulatorThroughput measures raw simulation speed
// (cycles/op) of the core engine under GTO.
func BenchmarkSimulatorThroughput(b *testing.B) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		b.Fatal(err)
	}
	spec.InstrPerWarp = 2000
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		g := sm.MustGPU(sm.DefaultConfig(), workload.MustKernel(spec), sched.NewGTO(), nil)
		r := g.Run()
		cycles = r.Cycles
	}
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// --- Sweep engine hot path ---

// sweepSpec is the grid the sweep benchmarks expand: 7 schedulers ×
// 21 benchmarks × 4 configurations = 588 cells.
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

// BenchmarkSweepStoreAppend measures the NDJSON result store's append
// path (marshal + single write), the per-cell bookkeeping overhead of
// a running sweep.
func BenchmarkSweepStoreAppend(b *testing.B) {
	spec := sweepSpec()
	cells, err := spec.Expand()
	if err != nil {
		b.Fatal(err)
	}
	st, err := sweep.Create(filepath.Join(b.TempDir(), "s"), "bench", spec, len(cells))
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	payload := []byte(`{"bench":"SYRK","sched":"GTO","ipc":1.25,"cycles":100000}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cells[i%len(cells)]
		rec := sweep.CellRecord{
			Key: c.Key(), Index: c.Index, Bench: c.Bench, Sched: c.Sched,
			Config: c.Config, Status: sweep.StatusOK, IPC: 1.25, Result: payload,
		}
		if err := st.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
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
