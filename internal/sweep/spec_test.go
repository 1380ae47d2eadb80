package sweep

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/workload"
)

func TestExpandGrid(t *testing.T) {
	spec := Spec{
		Name: "grid",
		Axes: Axes{
			Schedulers: []string{"GTO", "CCWS", "CIAO-C"},
			Benchmarks: []string{"SYRK", "ATAX"},
			Configs: []Config{
				{Name: "base"},
				{Name: "l1-32k", Override: harness.Override{L1SizeKB: 32}},
			},
		},
		Options: service.OptionSpec{InstrPerWarp: 500},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 12 {
		t.Fatalf("got %d cells, want 12", len(cells))
	}
	// Config-major order: the first six cells are the "base" config.
	for i, c := range cells {
		if c.Index != i {
			t.Errorf("cell %d has index %d", i, c.Index)
		}
		wantCfg := "base"
		if i >= 6 {
			wantCfg = "l1-32k"
		}
		if c.Config != wantCfg {
			t.Errorf("cell %d config = %q, want %q", i, c.Config, wantCfg)
		}
		if c.Spec.Experiment != service.ExpRun {
			t.Errorf("cell %d experiment = %q", i, c.Spec.Experiment)
		}
		if c.Spec.Options.InstrPerWarp != 500 {
			t.Errorf("cell %d lost the sweep options", i)
		}
	}
	// The base config carries no override; the l1-32k one does.
	if cells[0].Spec.Config != nil {
		t.Error("baseline cell should have nil config override")
	}
	if cells[6].Spec.Config == nil || cells[6].Spec.Config.L1SizeKB != 32 {
		t.Errorf("override cell config = %+v", cells[6].Spec.Config)
	}
	// All keys distinct.
	keys := map[string]bool{}
	for _, c := range cells {
		keys[c.Key()] = true
	}
	if len(keys) != len(cells) {
		t.Errorf("%d distinct keys for %d cells", len(keys), len(cells))
	}
}

func TestExpandClassAxis(t *testing.T) {
	spec := Spec{
		Name: "cls",
		Axes: Axes{
			Schedulers: []string{"GTO"},
			Benchmarks: []string{"SYRK"}, // also in SWS: must not duplicate
			Classes:    []string{"LWS"},
		},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + len(workload.ByClass(workload.LWS))
	if len(cells) != want {
		t.Fatalf("got %d cells, want %d", len(cells), want)
	}
	if cells[0].Bench != "SYRK" {
		t.Errorf("explicit benchmarks should come first, got %q", cells[0].Bench)
	}
}

func TestExpandDefaultsToFullAxes(t *testing.T) {
	cells, err := Spec{Name: "all"}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	want := len(workload.Suite()) * len(harness.Schedulers())
	if len(cells) != want {
		t.Fatalf("got %d cells, want the full %d-cell matrix", len(cells), want)
	}
}

func TestExpandPointsAndDedup(t *testing.T) {
	spec := Spec{
		Name: "pts",
		Axes: Axes{Schedulers: []string{"GTO"}, Benchmarks: []string{"SYRK"}},
		Points: []Point{
			{Bench: "SYRK", Sched: "GTO"}, // duplicate of the grid cell
			{Bench: "KMN", Sched: "CCWS", Options: &service.OptionSpec{Seed: 9}},
		},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("got %d cells, want 2 (duplicate point dropped)", len(cells))
	}
	last := cells[len(cells)-1]
	if last.Bench != "KMN" || last.Spec.Options.Seed != 9 {
		t.Errorf("point cell = %+v", last)
	}
}

func TestExpandErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		want string
	}{
		{"no name", Spec{}, "needs a name"},
		{"bad sched", Spec{Name: "x", Axes: Axes{Schedulers: []string{"nope"}}}, "unknown scheduler"},
		{"bad bench", Spec{Name: "x", Axes: Axes{Benchmarks: []string{"nope"}}}, "unknown benchmark"},
		{"bad class", Spec{Name: "x", Axes: Axes{Classes: []string{"HUGE"}}}, "unknown benchmark class"},
		{"over cap", Spec{Name: "x", MaxCells: 10}, "exceed the cap"},
		{"bad override", Spec{Name: "x", Axes: Axes{
			Benchmarks: []string{"SYRK"}, Schedulers: []string{"GTO"},
			Configs: []Config{{Override: harness.Override{WarpsPerSM: 5}}},
		}}, "warps_per_sm"},
	}
	for _, tc := range cases {
		_, err := tc.spec.Expand()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestSpecKeyStable(t *testing.T) {
	a := Spec{Name: "x", Axes: Axes{Schedulers: []string{"GTO"}}}
	if a.Key() != a.Key() {
		t.Error("key not deterministic")
	}
	b := Spec{Name: "x", Axes: Axes{Schedulers: []string{"CCWS"}}}
	if a.Key() == b.Key() {
		t.Error("different specs share a key")
	}
}

// TestExampleSpecKeyIsPinned: a store lives in sweep-<first 16 hex
// digits of Spec.Key()>, so a change to how a spec encodes renames
// every existing sweep directory and strands its results. The l1
// capacity example pins the key of a plain grid with a config axis.
func TestExampleSpecKeyIsPinned(t *testing.T) {
	f, err := os.Open("../../examples/sweep-l1-capacity.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 60 {
		t.Errorf("example expands to %d cells, want 60 (3 schedulers x 5 benchmarks x 4 configs)", len(cells))
	}
	if got, want := spec.Key(), "8f85bc1111b1dd8f45012a68e6e793e5d139331352dec05854c69ee8cb777f6b"; got != want {
		t.Errorf("example spec key = %s, want %s: its store directory would be renamed", got, want)
	}
}

func TestRequiresExpandAndKeyInvariance(t *testing.T) {
	spec := Spec{
		Name:     "req",
		Requires: []string{"fleet"},
		Axes: Axes{
			Schedulers: []string{"GTO"},
			Benchmarks: []string{"SYRK"},
			Configs: []Config{
				{Name: "base"},
				{Name: "big", Requires: []string{"bigmem", "fleet"}, Override: harness.Override{L1SizeKB: 32}},
			},
		},
		Points: []Point{
			{Bench: "ATAX", Sched: "GTO", Config: &Config{Name: "pt", Requires: []string{"gpu"}, Override: harness.Override{L1Ways: 8}}},
		},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("got %d cells, want 3", len(cells))
	}

	// Requires and Distributed are parsed and ignored: stripping them
	// must not change the spec key (the same grid shares one store),
	// and Key must not mutate the caller's spec in the process.
	stripped := Spec{
		Name: "req",
		Axes: Axes{
			Schedulers: []string{"GTO"},
			Benchmarks: []string{"SYRK"},
			Configs: []Config{
				{Name: "base"},
				{Name: "big", Override: harness.Override{L1SizeKB: 32}},
			},
		},
		Points: []Point{
			{Bench: "ATAX", Sched: "GTO", Config: &Config{Name: "pt", Override: harness.Override{L1Ways: 8}}},
		},
	}
	distributed := spec
	distributed.Distributed = true
	if spec.Key() != stripped.Key() || distributed.Key() != stripped.Key() {
		t.Error("requires/distributed changed the spec key; resumed stores would not be shared")
	}
	if spec.Axes.Configs[1].Requires == nil || spec.Points[0].Config.Requires == nil {
		t.Error("Key() mutated the caller's spec")
	}
}
