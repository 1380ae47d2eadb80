package sweep

import (
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// searchEngine fabricates results whose IPC depends on the cell's MSHR
// override — peaked at 32 entries — so a halving search over
// mshr_entries has a well-defined optimum to converge to.
func searchEngine() *service.Engine {
	return service.NewEngine(service.Config{
		Workers: 4,
		Run: func(spec service.Spec) ([]byte, error) {
			ipc := 1.0
			if spec.Config != nil && spec.Config.MSHREntries > 0 {
				ipc = 2 - math.Abs(math.Log2(float64(spec.Config.MSHREntries))-5)/4
			}
			return json.Marshal(harness.CellResult{Bench: spec.Bench, Sched: spec.Sched, IPC: ipc})
		},
	})
}

// searchSpec is the shared tiny search: one scheduler × one benchmark
// × a pow2 MSHR axis, three rounds of three samples keeping one
// winner. Round 0 samples {8,32,128}; the engine's peak at 32 pulls
// the refinement there by round 1.
func searchSpec(name string) Spec {
	return Spec{
		Name: name,
		Axes: Axes{
			Schedulers: []string{"GTO"},
			Benchmarks: []string{"SYRK"},
		},
		Search: &Search{
			Axes:   []RangeAxis{{Param: "mshr_entries", Min: 8, Max: 128, Pow2: true}},
			Rounds: 3,
			TopK:   1,
			Grid:   3,
		},
	}
}

func TestSearchValidation(t *testing.T) {
	base := func() Spec { return searchSpec("v") }
	cases := []struct {
		name string
		mut  func(*Spec)
		want string
	}{
		{"unknown algo", func(s *Spec) { s.Search.Algo = "grid" }, "unknown algo"},
		{"no axes", func(s *Spec) { s.Search.Axes = nil }, "axes outside"},
		{"too many axes", func(s *Spec) {
			s.Search.Axes = []RangeAxis{
				{Param: "l1_size_kb", Min: 16, Max: 64}, {Param: "l1_ways", Min: 2, Max: 8},
				{Param: "mshr_entries", Min: 8, Max: 64}, {Param: "vta_entries", Min: 4, Max: 16},
				{Param: "dram_bandwidth_x", Min: 1, Max: 4},
			}
		}, "axes outside"},
		{"unknown param", func(s *Spec) { s.Search.Axes[0].Param = "warp_size" }, "unknown param"},
		{"dup param", func(s *Spec) {
			s.Search.Axes = append(s.Search.Axes, RangeAxis{Param: "mshr_entries", Min: 4, Max: 8, Pow2: true})
		}, "repeated"},
		{"non-positive min", func(s *Spec) { s.Search.Axes[0].Min = 0 }, "0 < min"},
		{"min above max", func(s *Spec) { s.Search.Axes[0].Min = 256 }, "0 < min <= max"},
		{"pow2 float param", func(s *Spec) {
			s.Search.Axes[0] = RangeAxis{Param: "ciao_high_cutoff", Min: 0.25, Max: 0.5, Pow2: true}
		}, "not an integer"},
		{"pow2 bad bounds", func(s *Spec) { s.Search.Axes[0].Max = 48 }, "powers of two"},
		{"step violation", func(s *Spec) {
			s.Search.Axes[0] = RangeAxis{Param: "warps_per_sm", Min: 12, Max: 48}
		}, "multiples of 8"},
		{"rounds out of range", func(s *Spec) { s.Search.Rounds = 9 }, "rounds 9"},
		{"topk out of range", func(s *Spec) { s.Search.TopK = -1 }, "top_k -1"},
		{"grid out of range", func(s *Spec) { s.Search.Grid = 1 }, "grid 1"},
		{"unknown objective", func(s *Spec) { s.Search.Objective = "max_ipc" }, "unknown objective"},
		{"configs clash", func(s *Spec) { s.Axes.Configs = []Config{{Name: "c"}} }, "drop axes.configs"},
		{"points clash", func(s *Spec) { s.Points = []Point{{Bench: "SYRK", Sched: "GTO"}} }, "drop axes.configs"},
		{"cell cap", func(s *Spec) {
			s.Search = &Search{
				Rounds: 8, TopK: 32, Grid: 9,
				Axes: []RangeAxis{
					{Param: "l1_size_kb", Min: 16, Max: 1024}, {Param: "l1_ways", Min: 1, Max: 512},
					{Param: "mshr_entries", Min: 1, Max: 512}, {Param: "vta_entries", Min: 1, Max: 512},
				},
			}
		}, "exceeds the cap"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mut(&s)
			err := s.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate = %v, want substring %q", err, tc.want)
			}
		})
	}

	// Defaults: zero rounds/top_k/grid/objective/algo are all legal.
	s := base()
	s.Search = &Search{Axes: []RangeAxis{{Param: "warps_per_sm", Min: 8, Max: 48}}}
	if err := s.Validate(); err != nil {
		t.Fatalf("defaulted search rejected: %v", err)
	}
}

func TestSearchRound0SamplingSnapsPow2(t *testing.T) {
	plan, err := searchSpec("snap").DeriveSearch(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Round != 0 || plan.Rounds != 3 || plan.Finished {
		t.Fatalf("plan = round %d/%d finished=%v", plan.Round, plan.Rounds, plan.Finished)
	}
	want := []string{"mshr_entries=8", "mshr_entries=32", "mshr_entries=128"}
	if len(plan.NewCells) != len(want) {
		t.Fatalf("%d round-0 cells, want %d", len(plan.NewCells), len(want))
	}
	for i, c := range plan.NewCells {
		if c.Config != want[i] {
			t.Errorf("cell %d config = %q, want %q", i, c.Config, want[i])
		}
		if c.Spec.Config == nil || c.Spec.Config.MSHREntries == 0 {
			t.Errorf("cell %d carries no MSHR override", i)
		}
	}
}

// driveDerivation completes a search purely through DeriveSearch,
// fabricating an IPC per cell key, and returns the per-round config
// signatures plus the final plan.
func driveDerivation(t *testing.T, spec Spec, ipcFor func(string) float64) ([][]string, *SearchPlan) {
	t.Helper()
	completed := map[string]float64{}
	var rounds [][]string
	for i := 0; i < 64; i++ {
		plan, err := spec.DeriveSearch(completed, nil)
		if err != nil {
			t.Fatal(err)
		}
		if plan.Finished {
			return rounds, plan
		}
		var sigs []string
		for _, c := range plan.NewCells {
			sigs = append(sigs, c.Config)
			completed[c.Key()] = ipcFor(c.Key())
		}
		rounds = append(rounds, sigs)
	}
	t.Fatal("derivation did not converge")
	return nil, nil
}

func TestDeriveSearchIsDeterministic(t *testing.T) {
	spec := Spec{
		Name: "det",
		Axes: Axes{Schedulers: []string{"GTO"}, Benchmarks: []string{"SYRK", "ATAX"}},
		Search: &Search{
			Rounds: 3, TopK: 2, Grid: 3,
			Axes: []RangeAxis{
				{Param: "mshr_entries", Min: 8, Max: 64, Pow2: true},
				{Param: "ciao_high_cutoff", Min: 0.006, Max: 0.048, Log: true},
			},
		},
	}
	// Key-hash IPC: arbitrary but fixed, so replay must re-derive the
	// exact same rounds and winners.
	ipcFor := func(key string) float64 { return 1 + float64(key[0])/256 }
	r1, p1 := driveDerivation(t, spec, ipcFor)
	r2, p2 := driveDerivation(t, spec, ipcFor)
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("round sigs diverged:\n%v\nvs\n%v", r1, r2)
	}
	if !reflect.DeepEqual(p1.Winners, p2.Winners) {
		t.Fatalf("winners diverged:\n%+v\nvs\n%+v", p1.Winners, p2.Winners)
	}
	if len(p1.Winners) != 2 {
		t.Fatalf("winners = %d, want top 2", len(p1.Winners))
	}
	if p1.Done != p1.Issued || p1.Failed != 0 {
		t.Fatalf("final plan: done %d failed %d of %d issued", p1.Done, p1.Failed, p1.Issued)
	}
}

func TestRunSearchLocalEndToEnd(t *testing.T) {
	spec := searchSpec("e2e")
	dir := filepath.Join(t.TempDir(), "s")
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	store, err := Create(dir, "id", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	eng := searchEngine()
	var rounds []int
	final, err := RunSearch(context.Background(), spec, store, func(ctx context.Context, plan *SearchPlan) (Progress, error) {
		rounds = append(rounds, plan.Round)
		return (&Runner{Engine: eng, Store: store}).Run(ctx, plan.NewCells)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Round != 3 || final.Rounds != 3 {
		t.Fatalf("final = %+v", final)
	}
	// Rounds 0 and 1 issue new cells; round 2 (centred on the winner)
	// re-samples only already-seen points and settles without running.
	if !reflect.DeepEqual(rounds, []int{0, 1}) {
		t.Fatalf("executed rounds = %v", rounds)
	}
	if len(final.Winners) != 1 || final.Winners[0].Config != "mshr_entries=32" {
		t.Fatalf("winners = %+v, want mshr_entries=32", final.Winners)
	}
	if got := final.Winners[0].Score; math.Abs(got-2) > 1e-9 {
		t.Errorf("winner score = %v, want 2", got)
	}
	if final.Total != 5 || final.Done != 5 {
		t.Errorf("total/done = %d/%d, want 5/5", final.Total, final.Done)
	}

	man, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !man.SearchDone {
		t.Error("manifest not stamped search_done")
	}
	wantMarks := []RoundMark{
		{Round: 0, Points: 3, NewCells: 3, TotalIssued: 3},
		{Round: 1, Points: 3, NewCells: 2, TotalIssued: 5},
		{Round: 2, Points: 2, NewCells: 0, TotalIssued: 5},
	}
	if !reflect.DeepEqual(man.SearchRounds, wantMarks) {
		t.Errorf("search rounds = %+v, want %+v", man.SearchRounds, wantMarks)
	}
}

// TestRunSearchResume simulates a kill mid-round: the first RunSearch
// executes half of round 1 and stops; a second full RunSearch against
// the same store must finish the search and end byte-identical to an
// uninterrupted run in a separate directory.
func TestRunSearchResume(t *testing.T) {
	spec := searchSpec("resume")
	eng := searchEngine()
	runDir := func(dir string, interrupt bool) (Progress, error) {
		cells, err := spec.Expand()
		if err != nil {
			t.Fatal(err)
		}
		store, err := Create(dir, "id", spec, len(cells))
		if err != nil {
			store, err = Open(dir, spec)
			if err != nil {
				t.Fatal(err)
			}
		}
		defer store.Close()
		interrupted := false
		return RunSearch(context.Background(), spec, store, func(ctx context.Context, plan *SearchPlan) (Progress, error) {
			if interrupt && plan.Round == 1 && !interrupted {
				interrupted = true
				half := plan.NewCells[:len(plan.NewCells)/2]
				if _, err := (&Runner{Engine: eng, Store: store}).Run(ctx, half); err != nil {
					return Progress{State: StateFailed}, err
				}
				return Progress{State: StateCancelled}, nil
			}
			return (&Runner{Engine: eng, Store: store}).Run(ctx, plan.NewCells)
		})
	}

	brokenDir := filepath.Join(t.TempDir(), "broken")
	cleanDir := filepath.Join(t.TempDir(), "clean")

	first, err := runDir(brokenDir, true)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != StateCancelled || first.Round != 2 {
		t.Fatalf("interrupted run = %+v, want cancelled in round 2/3", first)
	}
	resumed, err := runDir(brokenDir, false)
	if err != nil {
		t.Fatal(err)
	}
	control, err := runDir(cleanDir, false)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.State != StateDone || control.State != StateDone {
		t.Fatalf("states = %s / %s", resumed.State, control.State)
	}
	if !reflect.DeepEqual(resumed.Winners, control.Winners) {
		t.Fatalf("winners diverged: %+v vs %+v", resumed.Winners, control.Winners)
	}

	// The stores must agree cell for cell: same keys, same result
	// bytes, no cell run under a different identity.
	results := func(dir string) map[string]string {
		recs, corrupt, err := ReadRecords(dir)
		if err != nil || corrupt > 0 {
			t.Fatalf("ReadRecords(%s) = corrupt %d, %v", dir, corrupt, err)
		}
		out := map[string]string{}
		for _, rec := range recs {
			if rec.Status == StatusOK {
				out[rec.Key] = string(rec.Result)
			}
		}
		return out
	}
	got, want := results(brokenDir), results(cleanDir)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stores diverged: %d vs %d cells", len(got), len(want))
	}
	manB, _ := readManifest(brokenDir)
	manC, _ := readManifest(cleanDir)
	if !reflect.DeepEqual(manB.SearchRounds, manC.SearchRounds) || !manB.SearchDone {
		t.Fatalf("manifests diverged: %+v vs %+v", manB.SearchRounds, manC.SearchRounds)
	}
}

func TestManagerRunsLocalSearch(t *testing.T) {
	m := NewManager(searchEngine(), t.TempDir(), 0)
	spec := searchSpec("managed")
	run, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-run.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("managed search did not finish")
	}
	final := run.Progress()
	if final.State != StateDone || final.Round != 3 || final.Rounds != 3 {
		t.Fatalf("final = %+v", final)
	}
	if len(final.Winners) != 1 || final.Winners[0].Config != "mshr_entries=32" {
		t.Fatalf("winners = %+v", final.Winners)
	}

	// Re-POSTing the finished spec resumes against the settled store:
	// it must re-derive the same winners without executing anything.
	again, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-again.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("re-POSTed search did not finish")
	}
	re := again.Progress()
	if re.State != StateDone || !reflect.DeepEqual(re.Winners, final.Winners) {
		t.Fatalf("re-run = %+v", re)
	}
}

func TestSearchKeyIgnoresDistribution(t *testing.T) {
	a := searchSpec("k")
	b := searchSpec("k")
	b.Distributed = true
	b.Requires = []string{"bigmem"}
	if a.Key() != b.Key() {
		t.Error("distribution knobs changed the search spec key")
	}
	c := searchSpec("k")
	c.Search.Grid = 5
	if a.Key() == c.Key() {
		t.Error("search parameters must participate in the spec key")
	}
}
