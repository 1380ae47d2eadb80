package harness

import (
	"strings"
	"testing"

	"repro/internal/workload"
)

// testOpt keeps integration runs short.
func testOpt() Options {
	return Options{InstrPerWarp: 800}
}

// seqRunner runs a figure's cells one after another with opt. The
// service engine, which runs them everywhere else, sits above this
// package.
func seqRunner(opt Options) CellRunner {
	return func(cells []Cell) ([]CellResult, error) {
		out := make([]CellResult, len(cells))
		for i, c := range cells {
			o := opt
			o.Override = c.Config
			r, err := RunCell(c.Bench, c.Sched, o)
			if err != nil {
				return nil, err
			}
			out[i] = r
		}
		return out, nil
	}
}

func TestSchedulersComplete(t *testing.T) {
	fs := Schedulers()
	if len(fs) != 7 {
		t.Fatalf("scheduler count = %d, want 7 (Figure 8)", len(fs))
	}
	want := []string{"GTO", "CCWS", "Best-SWL", "statPCAL", "CIAO-T", "CIAO-P", "CIAO-C"}
	for i, f := range fs {
		if f.Name != want[i] {
			t.Errorf("scheduler %d = %s, want %s", i, f.Name, want[i])
		}
		c := f.New()
		if c.Name() != f.Name {
			t.Errorf("factory %s builds controller named %s", f.Name, c.Name())
		}
	}
	// CIAO-P/C require the shared cache; CIAO-T must not.
	for _, f := range fs {
		wantShared := f.Name == "CIAO-P" || f.Name == "CIAO-C"
		if f.NeedsSharedCache != wantShared {
			t.Errorf("%s NeedsSharedCache = %v", f.Name, f.NeedsSharedCache)
		}
	}
}

func TestSchedulerByName(t *testing.T) {
	if _, err := SchedulerByName("CIAO-C"); err != nil {
		t.Fatal(err)
	}
	if _, err := SchedulerByName("nope"); err == nil {
		t.Fatal("unknown scheduler accepted")
	}
}

func TestRunOne(t *testing.T) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	f, _ := SchedulerByName("GTO")
	r, g, err := RunOne(spec, f, testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if r.TimedOut {
		t.Fatal("run timed out")
	}
	if r.Instructions != 800*uint64(spec.NumWarps) {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	if r.Scheduler != "GTO" || g == nil {
		t.Fatal("result metadata wrong")
	}
}

func TestRunFig1b(t *testing.T) {
	res, err := RunFig1b(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"Best-SWL", "CCWS"} {
		if res.IPC[s] <= 0 {
			t.Errorf("%s IPC = %f", s, res.IPC[s])
		}
		if res.HitRate[s] <= 0 || res.HitRate[s] > 1 {
			t.Errorf("%s hit rate = %f", s, res.HitRate[s])
		}
		if res.ActiveWarps[s] <= 0 {
			t.Errorf("%s active warps = %f", s, res.ActiveWarps[s])
		}
	}
	// The paper's Figure 1b point: similar hit rates but Best-SWL
	// preserves far more TLP than CCWS on Backprop.
	if res.ActiveWarps["Best-SWL"] <= res.ActiveWarps["CCWS"] {
		t.Errorf("Best-SWL active warps (%f) not above CCWS (%f)",
			res.ActiveWarps["Best-SWL"], res.ActiveWarps["CCWS"])
	}
}

func TestRunFig4SkewExists(t *testing.T) {
	res, err := RunFig4(testOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.WorkloadMinMax) != len(workload.MemoryIntensive()) {
		t.Fatalf("covered %d workloads", len(res.WorkloadMinMax))
	}
	// Figure 4b: max single-pair interference well above min for at
	// least one workload (skew).
	skewed := false
	for _, mm := range res.WorkloadMinMax {
		if mm[1] >= 4*max64(mm[0], 1) {
			skewed = true
		}
	}
	if !skewed {
		t.Error("no interference skew observed in any workload")
	}
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

func TestRunTimeSeries(t *testing.T) {
	opt := testOpt()
	opt.SampleInterval = 500
	res, err := RunTimeSeries("ATAX", []string{"GTO", "CIAO-T"}, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"GTO", "CIAO-T"} {
		if res.Series[s].Len() == 0 {
			t.Errorf("%s produced no samples", s)
		}
	}
	if _, err := RunTimeSeries("nope", []string{"GTO"}, opt); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestRunFig8SmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix in -short mode")
	}
	res, err := RunFig8(seqRunner(Options{InstrPerWarp: 500}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Benchmarks) != 21 {
		t.Fatalf("benchmarks = %d", len(res.Benchmarks))
	}
	for _, b := range res.Benchmarks {
		if res.Normalized[b]["GTO"] != 1.0 {
			t.Errorf("%s GTO normalization = %f, want 1", b, res.Normalized[b]["GTO"])
		}
	}
	for _, s := range res.Schedulers {
		if res.OverallGeoMean[s] <= 0 {
			t.Errorf("%s geomean = %f", s, res.OverallGeoMean[s])
		}
	}
	tbl := res.Table().String()
	if !strings.Contains(tbl, "geomean-all") || !strings.Contains(tbl, "CIAO-C") {
		t.Error("table rendering incomplete")
	}
}

func TestEpochSensitivityNormalizesToDefault(t *testing.T) {
	res, err := RunEpochSensitivity([]uint64{5000}, seqRunner(testOpt()))
	if err != nil {
		t.Fatal(err)
	}
	for b, v := range res.Normalized[5000] {
		if v != 1.0 {
			t.Errorf("%s at default epoch = %f, want exactly 1 (same run)", b, v)
		}
	}
}

func TestRunFig12aConfigs(t *testing.T) {
	if testing.Short() {
		t.Skip("config study in -short mode")
	}
	res, err := RunFig12a(seqRunner(Options{InstrPerWarp: 400}))
	if err != nil {
		t.Fatal(err)
	}
	wantConfigs := []string{"GTO", "GTO-cap", "GTO-8way", "CIAO-C"}
	for i, c := range res.Configs {
		if c != wantConfigs[i] {
			t.Fatalf("configs = %v", res.Configs)
		}
		if res.GeoMean[c] <= 0 {
			t.Errorf("%s geomean = %f", c, res.GeoMean[c])
		}
	}
	if res.GeoMean["GTO"] != 1.0 {
		t.Errorf("GTO baseline = %f", res.GeoMean["GTO"])
	}
}

func TestRunFig12bDoublesBandwidth(t *testing.T) {
	if testing.Short() {
		t.Skip("config study in -short mode")
	}
	res, err := RunFig12b(seqRunner(Options{InstrPerWarp: 400}))
	if err != nil {
		t.Fatal(err)
	}
	if res.GeoMean["CIAO-C-2X"] <= 0 || res.GeoMean["statPCAL-2X"] <= 0 {
		t.Fatalf("2X geomeans = %+v", res.GeoMean)
	}
}

// timedOutRunner answers every cell with IPC 1 except the n-th, which
// hit MaxCycles.
func timedOutRunner(n int) CellRunner {
	return func(cells []Cell) ([]CellResult, error) {
		out := make([]CellResult, len(cells))
		for i, c := range cells {
			out[i] = CellResult{Bench: c.Bench, Sched: c.Sched, IPC: 1, Cycles: 1000, FinishedWarps: 48}
		}
		out[n].TimedOut, out[n].Cycles, out[n].FinishedWarps = true, 123456, 40
		return out, nil
	}
}

func TestGridRefusesTimedOutCell(t *testing.T) {
	// Fig 8's cells run benchmark by benchmark, GTO first: cell 8 is
	// the second benchmark under the second scheduler.
	bench, sched := workload.Suite()[1].Name, Schedulers()[1].Name
	_, err := RunFig8(timedOutRunner(8))
	if err == nil {
		t.Fatal("fig8 averaged a timed-out cell")
	}
	for _, want := range []string{bench + "/" + sched, "123456 cycles"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
	// A configuration study names the timed-out cell's machine too.
	_, err = RunFig12b(timedOutRunner(len(workload.MemoryIntensive())))
	if err == nil || !strings.Contains(err.Error(), "DRAMBandwidthX:2") {
		t.Fatalf("fig12b error = %v, want the 2X cell named", err)
	}
}
