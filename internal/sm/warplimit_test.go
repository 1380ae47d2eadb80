package sm_test

import (
	"testing"

	"repro/internal/harness"
	"repro/internal/sm"
	"repro/internal/workload"
)

// namedGTO runs a controller under GTO's name, so its Result compares
// with GTO's field by field.
type namedGTO struct{ sm.Controller }

func (namedGTO) Name() string { return "GTO" }

// TestFullWarpLimitRunsAsGTO backs harness.SimulatedAs: wherever it
// answers a Best-SWL or statPCAL cell from GTO's run (the Table II
// benchmarks whose Nwrp covers their 48 or 32 resident warps), the
// controller changes nothing. Its Result, time series, interference
// matrix, L2 and DRAM stats and every warp equal GTO's.
func TestFullWarpLimitRunsAsGTO(t *testing.T) {
	gto, err := harness.SchedulerByName("GTO")
	if err != nil {
		t.Fatal(err)
	}
	cfg := sm.DefaultConfig()
	cases := 0
	for _, warps := range []int{48, 32} {
		opt := harness.Options{Override: harness.Override{WarpsPerSM: warps}}
		for _, spec := range workload.Suite() {
			spec.NumWarps, spec.InstrPerWarp, spec.Seed = warps, 1500, 7
			var ref *sm.GPU
			for _, f := range harness.Schedulers() {
				if !f.WarpLimited || harness.SimulatedAs(spec.Name, f.Name, opt) != "GTO" {
					continue
				}
				if ref == nil {
					ref = sm.MustGPU(cfg, workload.MustKernel(spec), gto.New(), nil)
					ref.Run()
				}
				g := sm.MustGPU(cfg, workload.MustKernel(spec), namedGTO{f.New()}, nil)
				g.Run()
				if d := diffReports(g, ref); d != "" {
					t.Errorf("%s at %d warps: %s and GTO differ: %s", spec.Name, warps, f.Name, d)
				}
				cases++
			}
		}
	}
	// Nwrp 48 on 9 benchmarks; 36 or 38 on three more, which cover 32.
	if cases != 42 {
		t.Errorf("%d Best-SWL and statPCAL cells run as GTO, want 42", cases)
	}
}
