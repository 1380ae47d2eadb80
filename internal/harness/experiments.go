package harness

import (
	"fmt"

	"repro/internal/metrics"
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
