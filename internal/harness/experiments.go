package harness

import (
	"fmt"

	"repro/internal/memory"
	"repro/internal/metrics"
	"repro/internal/sm"
	"repro/internal/workload"
)

// Fig8Result carries the Figure 8a data: per-benchmark IPCs normalised
// to GTO, plus per-class and overall geometric means, and the Figure
// 8b shared-memory utilisation by class.
type Fig8Result struct {
	Benchmarks []string
	Schedulers []string
	// Normalized[bench][sched] is IPC normalised to GTO.
	Normalized map[string]map[string]float64
	// ClassGeoMean[class][sched] aggregates per class.
	ClassGeoMean map[workload.Class]map[string]float64
	// OverallGeoMean[sched] aggregates every benchmark.
	OverallGeoMean map[string]float64
	// SharedUtil[class] is the mean CIAO-C shared-cache utilisation
	// (Figure 8b).
	SharedUtil map[workload.Class]float64
}

// RunFig8 reproduces Figure 8: the seven schedulers over the full
// 21-benchmark suite.
func RunFig8(run CellRunner) (*Fig8Result, error) {
	specs := workload.Suite()
	factories := Schedulers()
	var cells []Cell
	for _, spec := range specs {
		for _, f := range factories {
			cells = append(cells, Cell{Bench: spec.Name, Sched: f.Name})
		}
	}
	m, err := runGrid(run, cells)
	if err != nil {
		return nil, err
	}
	out := &Fig8Result{
		Normalized:     map[string]map[string]float64{},
		ClassGeoMean:   map[workload.Class]map[string]float64{},
		OverallGeoMean: map[string]float64{},
		SharedUtil:     map[workload.Class]float64{},
	}
	for _, f := range factories {
		out.Schedulers = append(out.Schedulers, f.Name)
	}
	perClass := map[workload.Class]map[string][]float64{}
	overall := map[string][]float64{}
	utilSum := map[workload.Class]float64{}
	utilN := map[workload.Class]int{}
	for _, spec := range specs {
		out.Benchmarks = append(out.Benchmarks, spec.Name)
		base := m[Cell{Bench: spec.Name, Sched: "GTO"}].IPC
		row := map[string]float64{}
		for _, f := range factories {
			n := 0.0
			if base != 0 {
				n = m[Cell{Bench: spec.Name, Sched: f.Name}].IPC / base
			}
			row[f.Name] = n
			if perClass[spec.Class] == nil {
				perClass[spec.Class] = map[string][]float64{}
			}
			perClass[spec.Class][f.Name] = append(perClass[spec.Class][f.Name], n)
			overall[f.Name] = append(overall[f.Name], n)
		}
		out.Normalized[spec.Name] = row
		utilSum[spec.Class] += m[Cell{Bench: spec.Name, Sched: "CIAO-C"}].SharedUtil
		utilN[spec.Class]++
	}
	for cls, per := range perClass {
		out.ClassGeoMean[cls] = map[string]float64{}
		for s, vals := range per {
			out.ClassGeoMean[cls][s] = metrics.GeoMean(vals)
		}
	}
	for s, vals := range overall {
		out.OverallGeoMean[s] = metrics.GeoMean(vals)
	}
	for cls, n := range utilN {
		out.SharedUtil[cls] = utilSum[cls] / float64(n)
	}
	return out, nil
}

// Table renders the Figure 8a rows.
func (r *Fig8Result) Table() *metrics.Table {
	t := &metrics.Table{Header: append([]string{"benchmark"}, r.Schedulers...)}
	for _, b := range r.Benchmarks {
		row := []string{b}
		for _, s := range r.Schedulers {
			row = append(row, fmt.Sprintf("%.2f", r.Normalized[b][s]))
		}
		t.AddRow(row...)
	}
	for _, cls := range []workload.Class{workload.LWS, workload.SWS, workload.CI} {
		row := []string{"geomean-" + cls.String()}
		for _, s := range r.Schedulers {
			row = append(row, fmt.Sprintf("%.2f", r.ClassGeoMean[cls][s]))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean-all"}
	for _, s := range r.Schedulers {
		row = append(row, fmt.Sprintf("%.2f", r.OverallGeoMean[s]))
	}
	t.AddRow(row...)
	return t
}

// Fig1bResult carries Figure 1b: Backprop IPC, hit rate and active
// warps under Best-SWL and CCWS, normalised to Best-SWL.
type Fig1bResult struct {
	// Per scheduler: IPC, L1 hit rate, mean active warps (each
	// normalised to the maximum across the two schedulers, as the
	// figure plots 0..1 bars).
	IPC, HitRate, ActiveWarps map[string]float64
}

// RunFig1b reproduces Figure 1b on Backprop.
func RunFig1b(opt Options) (*Fig1bResult, error) {
	spec, err := workload.ByName("Backprop")
	if err != nil {
		return nil, err
	}
	out := &Fig1bResult{
		IPC:         map[string]float64{},
		HitRate:     map[string]float64{},
		ActiveWarps: map[string]float64{},
	}
	for _, name := range []string{"Best-SWL", "CCWS"} {
		f, err := SchedulerByName(name)
		if err != nil {
			return nil, err
		}
		r, g, err := RunOne(spec, f, opt)
		if err != nil {
			return nil, err
		}
		out.IPC[name] = r.IPC
		out.HitRate[name] = r.L1.HitRate()
		mean := 0.0
		for _, s := range g.TimeSeries().Samples {
			mean += float64(s.ActiveWarps)
		}
		if n := g.TimeSeries().Len(); n > 0 {
			mean /= float64(n)
		}
		out.ActiveWarps[name] = mean
	}
	return out, nil
}

// Fig1aResult carries Figure 1a: how often each of the most-interfered
// warps of a benchmark was interfered with by each other, under GTO.
type Fig1aResult struct {
	Bench string `json:"bench"`
	// Warps are the most-interfered warps, most interfered first.
	Warps []int `json:"warps"`
	// Normalized[i][j] is how often Warps[j] interfered with Warps[i],
	// over the largest count of the whole matrix.
	Normalized [][]float64 `json:"normalized"`
}

// RunFig1a reproduces Figure 1a: Backprop's 12 most-interfered warps.
func RunFig1a(opt Options) (*Fig1aResult, error) {
	spec, err := workload.ByName("Backprop")
	if err != nil {
		return nil, err
	}
	gto, err := SchedulerByName("GTO")
	if err != nil {
		return nil, err
	}
	_, g, err := RunOne(spec, gto, opt)
	if err != nil {
		return nil, err
	}
	im := g.Interference()
	out := &Fig1aResult{Bench: spec.Name, Warps: im.TopInterferedWarps(12)}
	norm := im.Normalized()
	for _, i := range out.Warps {
		row := make([]float64, len(out.Warps))
		for k, j := range out.Warps {
			row[k] = norm[i][j]
		}
		out.Normalized = append(out.Normalized, row)
	}
	return out, nil
}

// Fig4Result carries Figure 4: per-warp interference frequency on one
// benchmark plus min/max frequencies across workloads.
type Fig4Result struct {
	// Bench is the focus benchmark (KMN in the paper).
	Bench string
	// FocusWarp is the interfered warp examined in Figure 4a.
	FocusWarp int
	// PerInterferer[w] is how often warp w interfered with FocusWarp.
	PerInterferer []uint64
	// WorkloadMinMax[name] = {min, max} single-pair interference
	// frequency over warps (Figure 4b).
	WorkloadMinMax map[string][2]uint64
}

// RunFig4 reproduces Figure 4 on the memory-intensive suite.
func RunFig4(opt Options) (*Fig4Result, error) {
	gto, err := SchedulerByName("GTO")
	if err != nil {
		return nil, err
	}
	out := &Fig4Result{Bench: "KMN", WorkloadMinMax: map[string][2]uint64{}}
	for _, spec := range workload.MemoryIntensive() {
		_, g, err := RunOne(spec, gto, opt)
		if err != nil {
			return nil, err
		}
		im := g.Interference()
		minPer, maxPer := im.MinMaxPerWarp()
		var lo, hi uint64
		lo = ^uint64(0)
		for w := 0; w < im.N(); w++ {
			if maxPer[w] == 0 {
				continue
			}
			if minPer[w] < lo {
				lo = minPer[w]
			}
			if maxPer[w] > hi {
				hi = maxPer[w]
			}
		}
		if hi == 0 {
			lo = 0
		}
		out.WorkloadMinMax[spec.Name] = [2]uint64{lo, hi}
		if spec.Name == out.Bench {
			top := im.TopInterferedWarps(1)
			if len(top) > 0 {
				out.FocusWarp = top[0]
				out.PerInterferer = make([]uint64, im.N())
				for j := 0; j < im.N(); j++ {
					out.PerInterferer[j] = im.At(out.FocusWarp, j)
				}
			}
		}
	}
	return out, nil
}

// TimeSeriesSet maps scheduler name → sampled trace for one benchmark
// (Figures 9 and 10).
type TimeSeriesSet struct {
	Bench  string
	Series map[string]*metrics.TimeSeries
}

// RunTimeSeries reproduces the Figure 9/10 dynamic traces: the named
// benchmark under each named scheduler.
func RunTimeSeries(bench string, schedNames []string, opt Options) (*TimeSeriesSet, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	out := &TimeSeriesSet{Bench: bench, Series: map[string]*metrics.TimeSeries{}}
	for _, name := range schedNames {
		f, err := SchedulerByName(name)
		if err != nil {
			return nil, err
		}
		_, g, err := RunOne(spec, f, opt)
		if err != nil {
			return nil, err
		}
		ts := *g.TimeSeries()
		out.Series[name] = &ts
	}
	return out, nil
}

// SeriesSets carries Figures 9 and 10: each benchmark's traces under
// the same schedulers. Sets and Schedulers keep the figure's order; the
// JSON form is a map keyed by benchmark.
type SeriesSets struct {
	Sets       []*TimeSeriesSet
	Schedulers []string
}

// RunSeriesSets traces every benchmark under every scheduler.
func RunSeriesSets(benches, scheds []string, opt Options) (*SeriesSets, error) {
	out := &SeriesSets{Schedulers: scheds}
	for _, b := range benches {
		set, err := RunTimeSeries(b, scheds, opt)
		if err != nil {
			return nil, err
		}
		out.Sets = append(out.Sets, set)
	}
	return out, nil
}

// SensitivityResult maps parameter value → benchmark → IPC normalised
// to the paper's default value of that parameter (Figure 11).
type SensitivityResult struct {
	// Values are the swept parameter values in order.
	Values []float64
	// Normalized[value][bench] is IPC / IPC(default).
	Normalized map[float64]map[string]float64
}

// RunEpochSensitivity reproduces Figure 11a: CIAO-C IPC across
// high-cutoff epoch values on the sensitivity benchmark set,
// normalised to the 5000-instruction default.
func RunEpochSensitivity(epochs []uint64, run CellRunner) (*SensitivityResult, error) {
	values := make([]float64, len(epochs))
	for i, e := range epochs {
		values[i] = float64(e)
	}
	return runCIAOSensitivity(run, values, 5000, func(v float64) Override {
		return Override{CIAOHighEpoch: uint64(v)}
	})
}

// RunCutoffSensitivity reproduces Figure 11b: CIAO-C IPC across
// high-cutoff thresholds (low-cutoff fixed at half), normalised to the
// 1% default.
func RunCutoffSensitivity(cutoffs []float64, run CellRunner) (*SensitivityResult, error) {
	return runCIAOSensitivity(run, cutoffs, 0.01, func(v float64) Override {
		return Override{CIAOHighCutoff: v, CIAOLowCutoff: v / 2}
	})
}

// runCIAOSensitivity runs CIAO-C over the sensitivity set at the
// default value def and at each of values, with at turning a value
// into its machine.
func runCIAOSensitivity(run CellRunner, values []float64, def float64, at func(float64) Override) (*SensitivityResult, error) {
	specs := workload.SensitivitySet()
	cell := func(bench string, v float64) Cell { return Cell{Bench: bench, Sched: "CIAO-C", Config: at(v)} }
	var cells []Cell
	for _, v := range append([]float64{def}, values...) {
		for _, s := range specs {
			cells = append(cells, cell(s.Name, v))
		}
	}
	m, err := runGrid(run, cells)
	if err != nil {
		return nil, err
	}
	out := &SensitivityResult{Values: values, Normalized: map[float64]map[string]float64{}}
	for _, v := range values {
		row := map[string]float64{}
		for _, s := range specs {
			if base := m[cell(s.Name, def)].IPC; base > 0 {
				row[s.Name] = m[cell(s.Name, v)].IPC / base
			}
		}
		out.Normalized[v] = row
	}
	return out, nil
}

// Fig12Result carries the Figure 12 configuration studies.
type Fig12Result struct {
	// Normalized[config][bench] is IPC normalised to baseline GTO.
	Normalized map[string]map[string]float64
	// GeoMean[config] aggregates across benchmarks.
	GeoMean map[string]float64
	Configs []string
}

// RunFig12a compares GTO, GTO-cap (48KB L1D / 16KB shared), GTO-8way
// and CIAO-C on the memory-intensive suite.
func RunFig12a(run CellRunner) (*Fig12Result, error) {
	return runConfigStudy(run, []configVariant{
		{Name: "GTO", Sched: "GTO"},
		// Trade shared memory for L1D (Fermi's 48KB L1 mode is 6-way:
		// 64 power-of-two sets).
		{Name: "GTO-cap", Sched: "GTO", Config: Override{L1SizeKB: 48, L1Ways: 6, SharedMemKB: 16}},
		{Name: "GTO-8way", Sched: "GTO", Config: Override{L1Ways: 8}},
		{Name: "CIAO-C", Sched: "CIAO-C"},
	})
}

// RunFig12b compares statPCAL-2X and CIAO-C-2X (doubled DRAM
// bandwidth), normalised to baseline GTO.
func RunFig12b(run CellRunner) (*Fig12Result, error) {
	double := Override{DRAMBandwidthX: 2}
	return runConfigStudy(run, []configVariant{
		{Name: "GTO", Sched: "GTO"},
		{Name: "statPCAL-2X", Sched: "statPCAL", Config: double},
		{Name: "CIAO-C-2X", Sched: "CIAO-C", Config: double},
	})
}

// configVariant is one column of a configuration study: a scheduler on
// a machine.
type configVariant struct {
	Name   string
	Sched  string
	Config Override
}

// runConfigStudy runs every variant over the memory-intensive suite,
// normalised to baseline GTO.
func runConfigStudy(run CellRunner, variants []configVariant) (*Fig12Result, error) {
	specs := workload.MemoryIntensive()
	var cells []Cell
	for _, v := range variants {
		for _, s := range specs {
			cells = append(cells, Cell{Bench: s.Name, Sched: v.Sched, Config: v.Config})
		}
	}
	m, err := runGrid(run, cells)
	if err != nil {
		return nil, err
	}
	out := &Fig12Result{
		Normalized: map[string]map[string]float64{},
		GeoMean:    map[string]float64{},
	}
	for _, v := range variants {
		out.Configs = append(out.Configs, v.Name)
		row := map[string]float64{}
		var vals []float64
		for _, s := range specs {
			n := 0.0
			if base := m[Cell{Bench: s.Name, Sched: "GTO"}].IPC; base > 0 {
				n = m[Cell{Bench: s.Name, Sched: v.Sched, Config: v.Config}].IPC / base
			}
			row[s.Name] = n
			vals = append(vals, n)
		}
		out.Normalized[v.Name] = row
		out.GeoMean[v.Name] = metrics.GeoMean(vals)
	}
	return out, nil
}

// Table1 carries Table I: the simulated machine's configuration.
type Table1 struct {
	L1KB               int  `json:"l1_kb"`
	L1Ways             int  `json:"l1_ways"`
	L1Sets             int  `json:"l1_sets"`
	LineBytes          int  `json:"line_bytes"`
	L1XORHash          bool `json:"l1_xor_hash"`
	SharedMemKB        int  `json:"shared_mem_kb"`
	SharedLatency      int  `json:"shared_latency"`
	L2KB               int  `json:"l2_kb"`
	L2Ways             int  `json:"l2_ways"`
	L2Partitions       int  `json:"l2_partitions"`
	L2Latency          int  `json:"l2_latency"`
	DRAMBanks          int  `json:"dram_banks"`
	TCL                int  `json:"dram_tcl"`
	TRCD               int  `json:"dram_trcd"`
	TRAS               int  `json:"dram_tras"`
	DRAMTransferCycles int  `json:"dram_transfer_cycles"`
	VTAEntriesPerWarp  int  `json:"vta_entries"`
	Warps              int  `json:"warps"`
	MSHREntries        int  `json:"mshr_entries"`
	MSHRMergeMax       int  `json:"mshr_merge_max"`
}

// NewTable1 reads Table I off the default machine.
func NewTable1() Table1 {
	cfg := sm.DefaultConfig()
	d := cfg.L2Config.DRAM
	return Table1{
		L1KB: cfg.L1.SizeBytes >> 10, L1Ways: cfg.L1.Ways, L1Sets: cfg.L1.Sets(),
		LineBytes: memory.LineSize, L1XORHash: cfg.L1.UseXORHash,
		SharedMemKB: cfg.SharedMemBytes >> 10, SharedLatency: cfg.SharedHitLatency,
		L2KB: cfg.L2Config.TotalBytes >> 10, L2Ways: cfg.L2Config.Ways,
		L2Partitions: cfg.L2Config.Partitions, L2Latency: cfg.L2Config.Latency,
		DRAMBanks: d.Banks, TCL: d.TCL, TRCD: d.TRCD, TRAS: d.TRAS, DRAMTransferCycles: d.TransferCycles,
		VTAEntriesPerWarp: cfg.VTAEntriesPerWarp,
		Warps:             workload.DefaultWarps,
		MSHREntries:       cfg.MSHREntries, MSHRMergeMax: cfg.MSHRMergeMax,
	}
}

// Table2Row is one benchmark of Table II.
type Table2Row struct {
	Name       string  `json:"benchmark"`
	APKI       int     `json:"apki"`
	InputBytes int     `json:"input_bytes"`
	Nwrp       int     `json:"nwrp"`
	FsMem      float64 `json:"fsmem"`
	Barriers   bool    `json:"barriers"`
	Class      string  `json:"class"`
}

// NewTable2 reads Table II off the benchmark suite.
func NewTable2() []Table2Row {
	var rows []Table2Row
	for _, s := range workload.Suite() {
		rows = append(rows, Table2Row{Name: s.Name, APKI: s.APKI, InputBytes: s.InputBytes,
			Nwrp: s.NwrpBest, FsMem: s.FsMem, Barriers: s.Barriers, Class: s.Class.String()})
	}
	return rows
}

// ChipResult carries the chip-level study: one benchmark on a cluster
// of SMs sharing the L2 and DRAM, under GTO and CIAO-C.
type ChipResult struct {
	Bench      string    `json:"bench"`
	SMs        int       `json:"sms"`
	Schedulers []ChipRow `json:"schedulers"`
}

// ChipRow is one scheduler's chip-level outcome.
type ChipRow struct {
	Sched   string  `json:"sched"`
	ChipIPC float64 `json:"chip_ipc"`
	// L1HitRate pools every SM's L1D accesses.
	L1HitRate float64 `json:"l1_hit_rate"`
	// L2HitRate is the shared L2's.
	L2HitRate float64 `json:"l2_hit_rate"`
}

// RunChip runs bench on a 4-SM cluster sharing one L2/DRAM under GTO
// and CIAO-C, to check that the single-SM conclusions survive
// chip-level sharing. Without an instruction budget in opt, each warp
// runs 2500 instructions.
func RunChip(bench string, opt Options) (*ChipResult, error) {
	spec, err := workload.ByName(bench)
	if err != nil {
		return nil, err
	}
	if opt.InstrPerWarp == 0 {
		opt.InstrPerWarp = 2500
	}
	spec = opt.applySpec(spec)
	out := &ChipResult{Bench: bench, SMs: 4}
	for _, name := range []string{"GTO", "CIAO-C"} {
		f, err := SchedulerByName(name)
		if err != nil {
			return nil, err
		}
		cluster, err := sm.NewCluster(out.SMs, opt.buildConfig(f), spec, f.New)
		if err != nil {
			return nil, err
		}
		perSM, chipIPC := cluster.Run()
		var hits, accs uint64
		for _, r := range perSM {
			hits += r.L1.Hits
			accs += r.L1.Accesses
		}
		row := ChipRow{Sched: name, ChipIPC: chipIPC, L2HitRate: cluster.L2().Stats().HitRate()}
		if accs > 0 {
			row.L1HitRate = float64(hits) / float64(accs)
		}
		out.Schedulers = append(out.Schedulers, row)
	}
	return out, nil
}
