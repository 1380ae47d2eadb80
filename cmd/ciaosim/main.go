// Command ciaosim drives the CIAO reproduction experiments: it can
// regenerate every table and figure of the paper's evaluation section
// and print the corresponding rows or CSV series.
//
// Usage:
//
//	ciaosim -experiment fig8              # IPC of 7 schedulers × 21 benchmarks
//	ciaosim -experiment fig1b             # Backprop: Best-SWL vs CCWS
//	ciaosim -experiment fig1a             # Backprop interference heatmap
//	ciaosim -experiment fig4              # interference skew
//	ciaosim -experiment fig9              # ATAX/Backprop time series (CSV)
//	ciaosim -experiment fig10             # SYRK/KMN time series (CSV)
//	ciaosim -experiment fig11a|fig11b     # sensitivity sweeps
//	ciaosim -experiment fig12a|fig12b     # cache/DRAM configuration studies
//	ciaosim -experiment table1            # the simulated configuration
//	ciaosim -experiment table2            # benchmark characteristics
//	ciaosim -experiment overhead          # §V-F cost model
//	ciaosim -experiment run -bench SYRK -sched CIAO-C   # one cell
//
// -instr scales simulation length (instructions per warp). -json
// switches the output to the same stable JSON encoding served by
// cmd/ciaoserve; it supports the simulation experiments, timeseries
// (-sched takes a comma-separated scheduler list there) and the
// overhead model, and rejects the text-only views (fig1a, table1,
// table2, chip), which have no JSON form.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/overhead"
	"repro/internal/sched"
	"repro/internal/service"
	"repro/internal/sm"
	"repro/internal/workload"
)

func main() {
	var (
		experiment = flag.String("experiment", "fig8", "experiment to run (fig1a, fig1b, fig4, fig8, fig9, fig10, fig11a, fig11b, fig12a, fig12b, table1, table2, overhead, run)")
		bench      = flag.String("bench", "SYRK", "benchmark for -experiment run")
		sched      = flag.String("sched", "CIAO-C", "scheduler for -experiment run (comma-separated list for -json timeseries)")
		instr      = flag.Uint64("instr", 0, "instructions per warp (0 = suite default)")
		seed       = flag.Uint64("seed", 0, "workload seed override")
		jsonOut    = flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	)
	flag.Parse()

	var err error
	if *jsonOut {
		err = runJSON(*experiment, *bench, *sched, *instr, *seed)
	} else {
		opt := harness.Options{InstrPerWarp: *instr, Seed: *seed}
		err = run(*experiment, *bench, *sched, opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ciaosim:", err)
		os.Exit(1)
	}
}

// runJSON routes the experiment through the service runner so ciaosim
// -json and ciaoserve emit byte-identical encodings.
func runJSON(experiment, bench, sched string, instr, seed uint64) error {
	spec := service.Spec{
		Experiment: experiment,
		Options:    service.OptionSpec{InstrPerWarp: instr, Seed: seed},
	}
	switch experiment {
	case service.ExpRun:
		spec.Bench, spec.Sched = bench, sched
	case service.ExpTimeSeries:
		spec.Bench = bench
		spec.Schedulers = strings.Split(sched, ",")
	}
	payload, err := service.Execute(spec)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(payload))
	return err
}

func run(experiment, bench, sched string, opt harness.Options) error {
	// The matrix figures run their cells through an engine, as
	// ciaoserve and -json do.
	cells := service.NewEngine(service.Config{}).CellRunner(
		service.OptionSpec{InstrPerWarp: opt.InstrPerWarp, Seed: opt.Seed})
	switch experiment {
	case "fig8":
		res, err := harness.RunFig8(cells)
		if err != nil {
			return err
		}
		fmt.Println("Figure 8a — IPC normalized to GTO")
		fmt.Print(res.Table().String())
		fmt.Println("\nFigure 8b — shared-memory cache utilization (CIAO-C)")
		for _, c := range []workload.Class{workload.LWS, workload.SWS, workload.CI} {
			fmt.Printf("  %-4s %.2f\n", c, res.SharedUtil[c])
		}
		return nil

	case "fig1a":
		return fig1a(opt)

	case "fig1b":
		res, err := harness.RunFig1b(opt)
		if err != nil {
			return err
		}
		fmt.Println("Figure 1b — Backprop under Best-SWL vs CCWS")
		t := &metrics.Table{Header: []string{"metric", "Best-SWL", "CCWS"}}
		t.AddRow("IPC", fmt.Sprintf("%.3f", res.IPC["Best-SWL"]), fmt.Sprintf("%.3f", res.IPC["CCWS"]))
		t.AddRow("L1D hit rate", fmt.Sprintf("%.3f", res.HitRate["Best-SWL"]), fmt.Sprintf("%.3f", res.HitRate["CCWS"]))
		t.AddRow("active warps", fmt.Sprintf("%.1f", res.ActiveWarps["Best-SWL"]), fmt.Sprintf("%.1f", res.ActiveWarps["CCWS"]))
		fmt.Print(t.String())
		return nil

	case "fig4":
		res, err := harness.RunFig4(opt)
		if err != nil {
			return err
		}
		fmt.Printf("Figure 4a — interference suffered by the most-interfered warp of %s\n", res.Bench)
		fmt.Printf("focus warp W%d; non-zero interferers:\n", res.FocusWarp)
		for j, c := range res.PerInterferer {
			if c > 0 {
				fmt.Printf("  W%-3d %d\n", j, c)
			}
		}
		fmt.Println("\nFigure 4b — min/max single-pair interference per workload")
		names := make([]string, 0, len(res.WorkloadMinMax))
		for n := range res.WorkloadMinMax {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			mm := res.WorkloadMinMax[n]
			fmt.Printf("  %-9s min %-6d max %d\n", n, mm[0], mm[1])
		}
		return nil

	case "fig9":
		return timeSeries(opt, []string{"ATAX", "Backprop"}, []string{"Best-SWL", "CCWS", "CIAO-T"})

	case "fig10":
		return timeSeries(opt, []string{"SYRK", "KMN"}, []string{"CIAO-T", "CIAO-P", "CIAO-C"})

	case "fig11a":
		res, err := harness.RunEpochSensitivity([]uint64{1000, 5000, 10000, 50000}, cells)
		if err != nil {
			return err
		}
		printSensitivity("Figure 11a — IPC vs high-cutoff epoch (normalized to 5000)", res)
		return nil

	case "fig11b":
		res, err := harness.RunCutoffSensitivity([]float64{0.04, 0.02, 0.01, 0.005}, cells)
		if err != nil {
			return err
		}
		printSensitivity("Figure 11b — IPC vs high-cutoff threshold (normalized to 1%)", res)
		return nil

	case "fig12a":
		res, err := harness.RunFig12a(cells)
		if err != nil {
			return err
		}
		printFig12("Figure 12a — L1D configuration study (normalized to GTO)", res)
		return nil

	case "fig12b":
		res, err := harness.RunFig12b(cells)
		if err != nil {
			return err
		}
		printFig12("Figure 12b — DRAM bandwidth study (normalized to GTO)", res)
		return nil

	case "table1":
		return table1()

	case "table2":
		return table2()

	case "overhead":
		return overheadReport()

	case "chip":
		return chipStudy(bench, opt)

	case "run":
		return runOne(bench, sched, opt)
	}
	return fmt.Errorf("unknown experiment %q", experiment)
}

// chipStudy runs a 4-SM cluster sharing one L2/DRAM under GTO and
// CIAO-C, checking that the single-SM conclusions survive chip-level
// sharing.
func chipStudy(bench string, opt harness.Options) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	if opt.InstrPerWarp > 0 {
		spec.InstrPerWarp = opt.InstrPerWarp
	} else {
		spec.InstrPerWarp = 2500
	}
	const smCount = 4
	fmt.Printf("chip-level study: %d SMs sharing L2/DRAM, benchmark %s\n", smCount, bench)
	for _, variant := range []struct {
		name   string
		shared bool
		mk     func() sm.Controller
	}{
		{"GTO", false, func() sm.Controller { return sched.NewGTO() }},
		{"CIAO-C", true, func() sm.Controller { return core.NewC() }},
	} {
		cfg := sm.DefaultConfig()
		cfg.EnableSharedCache = variant.shared
		cluster, err := sm.NewCluster(smCount, cfg, spec, variant.mk)
		if err != nil {
			return err
		}
		perSM, chipIPC := cluster.Run()
		var hits, accs uint64
		for _, r := range perSM {
			hits += r.L1.Hits
			accs += r.L1.Accesses
		}
		hr := 0.0
		if accs > 0 {
			hr = float64(hits) / float64(accs)
		}
		fmt.Printf("  %-8s chip IPC %.4f  mean L1D hit rate %.3f  shared-L2 hit rate %.3f\n",
			variant.name, chipIPC, hr, cluster.L2().Stats().HitRate())
	}
	return nil
}

func fig1a(opt harness.Options) error {
	spec, err := workload.ByName("Backprop")
	if err != nil {
		return err
	}
	gto, err := harness.SchedulerByName("GTO")
	if err != nil {
		return err
	}
	_, g, err := harness.RunOne(spec, gto, opt)
	if err != nil {
		return err
	}
	im := g.Interference()
	top := im.TopInterferedWarps(12)
	norm := im.Normalized()
	fmt.Println("Figure 1a — Backprop inter-warp interference (normalized to max, top 12 interfered warps)")
	fmt.Print("         ")
	for _, j := range top {
		fmt.Printf("W%-5d", j)
	}
	fmt.Println()
	for _, i := range top {
		fmt.Printf("W%-4d | ", i)
		for _, j := range top {
			fmt.Printf("%5.2f ", norm[i][j])
		}
		fmt.Println()
	}
	return nil
}

func timeSeries(opt harness.Options, benches, scheds []string) error {
	fmt.Println("series,cycle,instructions,ipc,active,interference,l1hit")
	for _, b := range benches {
		res, err := harness.RunTimeSeries(b, scheds, opt)
		if err != nil {
			return err
		}
		for _, s := range scheds {
			fmt.Print(res.Series[s].CSV(b + "/" + s))
		}
	}
	return nil
}

func printSensitivity(title string, res *harness.SensitivityResult) {
	fmt.Println(title)
	header := []string{"value"}
	var benches []string
	for _, row := range res.Normalized {
		for b := range row {
			benches = append(benches, b)
		}
		break
	}
	sort.Strings(benches)
	header = append(header, benches...)
	t := &metrics.Table{Header: header}
	for _, v := range res.Values {
		row := []string{fmt.Sprintf("%g", v)}
		for _, b := range benches {
			row = append(row, fmt.Sprintf("%.2f", res.Normalized[v][b]))
		}
		t.AddRow(row...)
	}
	fmt.Print(t.String())
}

func printFig12(title string, res *harness.Fig12Result) {
	fmt.Println(title)
	t := &metrics.Table{Header: []string{"config", "geomean"}}
	for _, c := range res.Configs {
		t.AddRow(c, fmt.Sprintf("%.2f", res.GeoMean[c]))
	}
	fmt.Print(t.String())
}

func table1() error {
	cfg := sm.DefaultConfig()
	fmt.Println("Table I — simulated configuration")
	fmt.Printf("  L1D cache        %dKB, %d ways, %d sets, 128B lines, XOR hashing=%v\n",
		cfg.L1.SizeBytes>>10, cfg.L1.Ways, cfg.L1.Sets(), cfg.L1.UseXORHash)
	fmt.Printf("  Shared memory    %dKB, 32 banks, %d-cycle latency\n",
		cfg.SharedMemBytes>>10, cfg.SharedHitLatency)
	fmt.Printf("  L2 cache         %dKB, %d ways, %d partitions, %d-cycle latency\n",
		cfg.L2Config.TotalBytes>>10, cfg.L2Config.Ways, cfg.L2Config.Partitions, cfg.L2Config.Latency)
	d := cfg.L2Config.DRAM
	fmt.Printf("  DRAM (GDDR5)     %d banks, tCL=%d tRCD=%d tRAS=%d, %d-cycle/line (per-SM share)\n",
		d.Banks, d.TCL, d.TRCD, d.TRAS, d.TransferCycles)
	fmt.Printf("  VTA              %d tags per warp set, FIFO\n", cfg.VTAEntriesPerWarp)
	fmt.Printf("  Warps            %d per SM, MSHR %d×%d\n",
		workload.DefaultWarps, cfg.MSHREntries, cfg.MSHRMergeMax)
	return nil
}

func table2() error {
	fmt.Println("Table II — benchmark characteristics")
	t := &metrics.Table{Header: []string{"benchmark", "APKI", "input", "Nwrp", "Fsmem", "barriers", "class"}}
	for _, s := range workload.Suite() {
		t.AddRow(s.Name,
			fmt.Sprintf("%d", s.APKI),
			byteSize(s.InputBytes),
			fmt.Sprintf("%d", s.NwrpBest),
			fmt.Sprintf("%.0f%%", s.FsMem*100),
			map[bool]string{true: "Y", false: "N"}[s.Barriers],
			s.Class.String())
	}
	fmt.Print(t.String())
	return nil
}

func byteSize(n int) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%dMB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKB", n>>10)
	default:
		return fmt.Sprintf("%dB", n)
	}
}

func overheadReport() error {
	r := overhead.Compute()
	fmt.Println("Section V-F — hardware overhead")
	fmt.Printf("  interference list   %4d bits/SM\n", r.InterferenceListBitsPerSM)
	fmt.Printf("  pair list           %4d bits/SM\n", r.PairListBitsPerSM)
	fmt.Printf("  VTA-hit counters    %4d bits/SM\n", r.VTAHitCounterBitsPerSM)
	fmt.Printf("  detector lists      %.0f µm² (15 SMs)\n", r.DetectorListsAreaUM2)
	fmt.Printf("  VTA area            %.2f mm² = %.2f%% of die\n", r.VTAAreaMM2, 100*r.VTAAreaFraction)
	fmt.Printf("  logic               %d gates/SM\n", r.TotalGatesPerSM)
	fmt.Printf("  total area          %.2f%% of die (< 2%% claim: %v)\n",
		100*r.TotalAreaFraction, r.TotalAreaFraction < 0.02)
	fmt.Printf("  power               %.2f%% of TDP\n", 100*r.PowerFraction)
	return nil
}

func runOne(bench, sched string, opt harness.Options) error {
	spec, err := workload.ByName(bench)
	if err != nil {
		return err
	}
	f, err := harness.SchedulerByName(sched)
	if err != nil {
		return err
	}
	r, g, err := harness.RunOne(spec, f, opt)
	if err != nil {
		return err
	}
	fmt.Printf("%s under %s:\n", bench, sched)
	fmt.Printf("  IPC            %.4f\n", r.IPC)
	fmt.Printf("  cycles         %d\n", r.Cycles)
	fmt.Printf("  instructions   %d\n", r.Instructions)
	fmt.Printf("  L1D hit rate   %.3f (%d accesses)\n", r.L1.HitRate(), r.L1.Accesses)
	fmt.Printf("  VTA hits       %d\n", r.VTAHits)
	fmt.Printf("  interference   %d events\n", g.Interference().Total())
	if r.SharedStats.Accesses > 0 {
		fmt.Printf("  shared cache   %.3f hit rate (%d accesses, %.0f%% utilized)\n",
			r.SharedStats.HitRate(), r.SharedStats.Accesses, 100*r.SharedUtil)
	}
	return nil
}
