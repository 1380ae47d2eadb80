package harness

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// TestOptionsApplySpec pins the override contract the service layer's
// cache keys depend on: zero values leave the spec untouched, non-zero
// values replace the spec's own budget/seed.
func TestOptionsApplySpec(t *testing.T) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	wantInstr, wantSeed := spec.InstrPerWarp, spec.Seed
	if wantInstr == 0 {
		t.Fatal("suite spec has no default instruction budget")
	}

	got := Options{}.applySpec(spec)
	if got.InstrPerWarp != wantInstr || got.Seed != wantSeed {
		t.Errorf("zero Options mutated spec: instr %d→%d seed %d→%d",
			wantInstr, got.InstrPerWarp, wantSeed, got.Seed)
	}

	got = Options{InstrPerWarp: 123, Seed: 99}.applySpec(spec)
	if got.InstrPerWarp != 123 {
		t.Errorf("InstrPerWarp override = %d, want 123", got.InstrPerWarp)
	}
	if got.Seed != 99 {
		t.Errorf("Seed override = %d, want 99", got.Seed)
	}

	// Only the overridden field changes.
	got = Options{InstrPerWarp: 123}.applySpec(spec)
	if got.Seed != wantSeed {
		t.Errorf("InstrPerWarp override changed seed %d→%d", wantSeed, got.Seed)
	}
	got = Options{Seed: 7}.applySpec(spec)
	if got.InstrPerWarp != wantInstr {
		t.Errorf("Seed override changed instr %d→%d", wantInstr, got.InstrPerWarp)
	}
}

func TestOptionsBuildConfig(t *testing.T) {
	f, err := SchedulerByName("CIAO-C")
	if err != nil {
		t.Fatal(err)
	}
	cfg := Options{}.buildConfig(f)
	if !cfg.EnableSharedCache {
		t.Error("CIAO-C config lost the shared cache")
	}

	cfg = Options{SampleInterval: 777}.buildConfig(f)
	if cfg.SampleInterval != 777 {
		t.Errorf("SampleInterval = %d, want 777", cfg.SampleInterval)
	}
}

// TestOptionsSeedChangesRun checks a seed override actually reaches the
// workload generator: two seeds, two different executions.
func TestOptionsSeedChangesRun(t *testing.T) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	gto, err := SchedulerByName("GTO")
	if err != nil {
		t.Fatal(err)
	}
	opt := testOpt()
	r1, _, err := RunOne(spec, gto, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Seed = 0xD00D
	r2, _, err := RunOne(spec, gto, opt)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles == r2.Cycles && r1.L1.Accesses == r2.L1.Accesses && r1.VTAHits == r2.VTAHits {
		t.Error("seed override produced an identical execution")
	}
}

func TestFig8ResultJSONStable(t *testing.T) {
	r := &Fig8Result{
		Benchmarks: []string{"SYRK"},
		Schedulers: []string{"GTO", "CIAO-C"},
		Normalized: map[string]map[string]float64{"SYRK": {"GTO": 1, "CIAO-C": 1.4}},
		ClassGeoMean: map[workload.Class]map[string]float64{
			workload.LWS: {"GTO": 1},
		},
		OverallGeoMean: map[string]float64{"GTO": 1},
		SharedUtil:     map[workload.Class]float64{workload.SWS: 0.5},
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"normalized_ipc"`, `"class_geomean":{"LWS"`, `"shared_util":{"SWS"`} {
		if !strings.Contains(s, want) {
			t.Errorf("encoding missing %s: %s", want, s)
		}
	}
	b2, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if s != string(b2) {
		t.Error("encoding is not deterministic")
	}
}

func TestSensitivityResultJSONFloatKeys(t *testing.T) {
	r := &SensitivityResult{
		Values: []float64{0.04, 0.005},
		Normalized: map[float64]map[string]float64{
			0.04:  {"SYRK": 1},
			0.005: {"SYRK": 0.97},
		},
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err) // plain encoding/json rejects float64 map keys
	}
	var decoded struct {
		Values     []float64                     `json:"values"`
		Normalized map[string]map[string]float64 `json:"normalized_ipc"`
	}
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Normalized["0.005"]["SYRK"] != 0.97 {
		t.Errorf("0.005 row lost: %s", b)
	}
}

func TestTimeSeriesSetJSON(t *testing.T) {
	ts := &metrics.TimeSeries{}
	ts.Add(metrics.Sample{Cycle: 100, IPC: 1.5, ActiveWarps: 3})
	set := &TimeSeriesSet{Bench: "SYRK", Series: map[string]*metrics.TimeSeries{"GTO": ts}}
	b, err := json.Marshal(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"bench":"SYRK"`, `"cycle":100`, `"active_warps":3`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("encoding missing %s: %s", want, b)
		}
	}
}
