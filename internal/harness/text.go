package harness

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/metrics"
	"repro/internal/overhead"
	"repro/internal/workload"
)

// This file holds the experiments' text views: how ciaosim prints each
// payload when -json is not set.

func writeCell(w io.Writer, c CellResult) {
	fmt.Fprintf(w, "%s under %s:\n", c.Bench, c.Sched)
	fmt.Fprintf(w, "  IPC            %.4f\n", c.IPC)
	fmt.Fprintf(w, "  cycles         %d\n", c.Cycles)
	fmt.Fprintf(w, "  instructions   %d\n", c.Instructions)
	fmt.Fprintf(w, "  L1D hit rate   %.3f (%d accesses)\n", c.L1HitRate, c.L1Accesses)
	fmt.Fprintf(w, "  VTA hits       %d\n", c.VTAHits)
	fmt.Fprintf(w, "  interference   %d events\n", c.Interference)
	if c.SharedAccesses > 0 {
		fmt.Fprintf(w, "  shared cache   %.3f hit rate (%d accesses, %.0f%% utilized)\n",
			c.SharedHitRate, c.SharedAccesses, 100*c.SharedUtil)
	}
}

const csvHeader = "series,cycle,instructions,ipc,active,interference,l1hit"

// writeTimeSeries prints one benchmark's traces in scheduler-name
// order: the order of the requested schedulers is not part of the
// result.
func writeTimeSeries(w io.Writer, s *TimeSeriesSet) {
	scheds := make([]string, 0, len(s.Series))
	for name := range s.Series {
		scheds = append(scheds, name)
	}
	sort.Strings(scheds)
	writeSeriesSets(w, &SeriesSets{Sets: []*TimeSeriesSet{s}, Schedulers: scheds})
}

func writeSeriesSets(w io.Writer, f *SeriesSets) {
	fmt.Fprintln(w, csvHeader)
	for _, set := range f.Sets {
		for _, s := range f.Schedulers {
			fmt.Fprint(w, set.Series[s].CSV(set.Bench+"/"+s))
		}
	}
}

func writeFig1a(w io.Writer, r *Fig1aResult) {
	fmt.Fprintf(w, "Figure 1a — %s inter-warp interference (normalized to max, top %d interfered warps)\n",
		r.Bench, len(r.Warps))
	fmt.Fprint(w, "         ")
	for _, j := range r.Warps {
		fmt.Fprintf(w, "W%-5d", j)
	}
	fmt.Fprintln(w)
	for i, row := range r.Normalized {
		fmt.Fprintf(w, "W%-4d | ", r.Warps[i])
		for _, v := range row {
			fmt.Fprintf(w, "%5.2f ", v)
		}
		fmt.Fprintln(w)
	}
}

func writeFig1b(w io.Writer, r *Fig1bResult) {
	fmt.Fprintln(w, "Figure 1b — Backprop under Best-SWL vs CCWS")
	t := &metrics.Table{Header: []string{"metric", "Best-SWL", "CCWS"}}
	t.AddRow("IPC", fmt.Sprintf("%.3f", r.IPC["Best-SWL"]), fmt.Sprintf("%.3f", r.IPC["CCWS"]))
	t.AddRow("L1D hit rate", fmt.Sprintf("%.3f", r.HitRate["Best-SWL"]), fmt.Sprintf("%.3f", r.HitRate["CCWS"]))
	t.AddRow("active warps", fmt.Sprintf("%.1f", r.ActiveWarps["Best-SWL"]), fmt.Sprintf("%.1f", r.ActiveWarps["CCWS"]))
	fmt.Fprint(w, t.String())
}

func writeFig4(w io.Writer, r *Fig4Result) {
	fmt.Fprintf(w, "Figure 4a — interference suffered by the most-interfered warp of %s\n", r.Bench)
	fmt.Fprintf(w, "focus warp W%d; non-zero interferers:\n", r.FocusWarp)
	for j, c := range r.PerInterferer {
		if c > 0 {
			fmt.Fprintf(w, "  W%-3d %d\n", j, c)
		}
	}
	fmt.Fprintln(w, "\nFigure 4b — min/max single-pair interference per workload")
	names := make([]string, 0, len(r.WorkloadMinMax))
	for n := range r.WorkloadMinMax {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		mm := r.WorkloadMinMax[n]
		fmt.Fprintf(w, "  %-9s min %-6d max %d\n", n, mm[0], mm[1])
	}
}

func writeFig8(w io.Writer, r *Fig8Result) {
	fmt.Fprintln(w, "Figure 8a — IPC normalized to GTO")
	fmt.Fprint(w, r.Table().String())
	fmt.Fprintln(w, "\nFigure 8b — shared-memory cache utilization (CIAO-C)")
	for _, c := range []workload.Class{workload.LWS, workload.SWS, workload.CI} {
		fmt.Fprintf(w, "  %-4s %.2f\n", c, r.SharedUtil[c])
	}
}

func writeSensitivity(w io.Writer, title string, r *SensitivityResult) {
	fmt.Fprintln(w, title)
	var benches []string
	for _, row := range r.Normalized {
		for b := range row {
			benches = append(benches, b)
		}
		break
	}
	sort.Strings(benches)
	t := &metrics.Table{Header: append([]string{"value"}, benches...)}
	for _, v := range r.Values {
		row := []string{fmt.Sprintf("%g", v)}
		for _, b := range benches {
			row = append(row, fmt.Sprintf("%.2f", r.Normalized[v][b]))
		}
		t.AddRow(row...)
	}
	fmt.Fprint(w, t.String())
}

func writeFig12(w io.Writer, title string, r *Fig12Result) {
	fmt.Fprintln(w, title)
	t := &metrics.Table{Header: []string{"config", "geomean"}}
	for _, c := range r.Configs {
		t.AddRow(c, fmt.Sprintf("%.2f", r.GeoMean[c]))
	}
	fmt.Fprint(w, t.String())
}

func writeTable1(w io.Writer, t Table1) {
	fmt.Fprintln(w, "Table I — simulated configuration")
	fmt.Fprintf(w, "  L1D cache        %dKB, %d ways, %d sets, %dB lines, XOR hashing=%v\n",
		t.L1KB, t.L1Ways, t.L1Sets, t.LineBytes, t.L1XORHash)
	fmt.Fprintf(w, "  Shared memory    %dKB, 32 banks, %d-cycle latency\n", t.SharedMemKB, t.SharedLatency)
	fmt.Fprintf(w, "  L2 cache         %dKB, %d ways, %d partitions, %d-cycle latency\n",
		t.L2KB, t.L2Ways, t.L2Partitions, t.L2Latency)
	fmt.Fprintf(w, "  DRAM (GDDR5)     %d banks, tCL=%d tRCD=%d tRAS=%d, %d-cycle/line (per-SM share)\n",
		t.DRAMBanks, t.TCL, t.TRCD, t.TRAS, t.DRAMTransferCycles)
	fmt.Fprintf(w, "  VTA              %d tags per warp set, FIFO\n", t.VTAEntriesPerWarp)
	fmt.Fprintf(w, "  Warps            %d per SM, MSHR %d×%d\n", t.Warps, t.MSHREntries, t.MSHRMergeMax)
}

func writeTable2(w io.Writer, rows []Table2Row) {
	fmt.Fprintln(w, "Table II — benchmark characteristics")
	t := &metrics.Table{Header: []string{"benchmark", "APKI", "input", "Nwrp", "Fsmem", "barriers", "class"}}
	for _, r := range rows {
		barriers := "N"
		if r.Barriers {
			barriers = "Y"
		}
		t.AddRow(r.Name, fmt.Sprintf("%d", r.APKI), byteSize(r.InputBytes), fmt.Sprintf("%d", r.Nwrp),
			fmt.Sprintf("%.0f%%", r.FsMem*100), barriers, r.Class)
	}
	fmt.Fprint(w, t.String())
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

func writeOverhead(w io.Writer, r overhead.Report) {
	fmt.Fprintln(w, "Section V-F — hardware overhead")
	fmt.Fprintf(w, "  interference list   %4d bits/SM\n", r.InterferenceListBitsPerSM)
	fmt.Fprintf(w, "  pair list           %4d bits/SM\n", r.PairListBitsPerSM)
	fmt.Fprintf(w, "  VTA-hit counters    %4d bits/SM\n", r.VTAHitCounterBitsPerSM)
	fmt.Fprintf(w, "  detector lists      %.0f µm² (15 SMs)\n", r.DetectorListsAreaUM2)
	fmt.Fprintf(w, "  VTA area            %.2f mm² = %.2f%% of die\n", r.VTAAreaMM2, 100*r.VTAAreaFraction)
	fmt.Fprintf(w, "  logic               %d gates/SM\n", r.TotalGatesPerSM)
	fmt.Fprintf(w, "  total area          %.2f%% of die (< 2%% claim: %v)\n",
		100*r.TotalAreaFraction, r.TotalAreaFraction < 0.02)
	fmt.Fprintf(w, "  power               %.2f%% of TDP\n", 100*r.PowerFraction)
}

func writeChip(w io.Writer, r *ChipResult) {
	fmt.Fprintf(w, "chip-level study: %d SMs sharing L2/DRAM, benchmark %s\n", r.SMs, r.Bench)
	for _, v := range r.Schedulers {
		fmt.Fprintf(w, "  %-8s chip IPC %.4f  mean L1D hit rate %.3f  shared-L2 hit rate %.3f\n",
			v.Sched, v.ChipIPC, v.L1HitRate, v.L2HitRate)
	}
}
