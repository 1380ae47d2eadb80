package sweep

import (
	"context"
	"encoding/json"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// fakeEngine builds an engine whose executor fabricates a CellResult
// instead of simulating, so runner tests are instant. Simulations()
// still counts real executions — the cell-execution counter the
// resume tests assert on.
func fakeEngine(delay time.Duration) *service.Engine {
	return service.NewEngine(service.Config{
		Workers: 4,
		Run: func(spec service.Spec) ([]byte, error) {
			if delay > 0 {
				time.Sleep(delay)
			}
			return json.Marshal(harness.CellResult{Bench: spec.Bench, Sched: spec.Sched, IPC: 2})
		},
	})
}

func eightCells(t *testing.T) (Spec, []Cell) {
	t.Helper()
	spec := Spec{
		Name: "r",
		Axes: Axes{
			Schedulers: []string{"GTO", "CCWS"},
			Benchmarks: []string{"SYRK", "ATAX", "BICG", "KMN"},
		},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 {
		t.Fatalf("got %d cells", len(cells))
	}
	return spec, cells
}

func TestRunnerCompletes(t *testing.T) {
	spec, cells := eightCells(t)
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := fakeEngine(0)
	final, err := (&Runner{Engine: eng, Store: st}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 8 || final.Failed != 0 || final.Executed != 8 {
		t.Fatalf("final = %+v", final)
	}
	if final.GeoMeanIPC < 1.99 || final.GeoMeanIPC > 2.01 {
		t.Errorf("geomean = %f, want 2", final.GeoMeanIPC)
	}
	if got := eng.Simulations(); got != 8 {
		t.Errorf("simulations = %d, want 8", got)
	}
}

func TestRunnerResumeAfterCancel(t *testing.T) {
	spec, cells := eightCells(t)
	dir := filepath.Join(t.TempDir(), "s")
	st, err := Create(dir, "id", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: cancel once three cells completed (sequential, so at
	// most one more cell can slip through in flight).
	eng1 := fakeEngine(0)
	ctx, cancel := context.WithCancel(context.Background())
	r1 := &Runner{
		Engine:      eng1,
		Store:       st,
		Parallelism: 1,
		OnProgress: func(p Progress) {
			if p.Done >= 3 {
				cancel()
			}
		},
	}
	partial, err := r1.Run(ctx, cells)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if partial.State != StateCancelled {
		t.Fatalf("state = %q, want cancelled", partial.State)
	}
	if partial.Done < 3 || partial.Done >= 8 {
		t.Fatalf("done = %d, want a strict partial run", partial.Done)
	}
	if got := int(eng1.Simulations()); got != partial.Executed {
		t.Fatalf("phase-1 executed %d cells but engine ran %d", partial.Executed, got)
	}

	// Phase 2: a fresh process resumes and executes only the rest.
	st2, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	eng2 := fakeEngine(0)
	final, err := (&Runner{Engine: eng2, Store: st2}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Done != 8 {
		t.Fatalf("final = %+v", final)
	}
	if final.Skipped != partial.Done {
		t.Errorf("resumed run skipped %d cells, want %d", final.Skipped, partial.Done)
	}
	want := 8 - partial.Done
	if got := int(eng2.Simulations()); got != want {
		t.Errorf("resumed run executed %d cells, want %d", got, want)
	}
	if final.GeoMeanIPC < 1.99 || final.GeoMeanIPC > 2.01 {
		t.Errorf("resumed geomean = %f, want 2 (skipped IPCs must seed it)", final.GeoMeanIPC)
	}
}

func TestRunnerShards(t *testing.T) {
	spec, cells := eightCells(t)
	base := t.TempDir()
	keys := map[string]int{}
	for shard := 0; shard < 2; shard++ {
		st, err := Create(filepath.Join(base, string(rune('a'+shard))), "id", spec, len(cells))
		if err != nil {
			t.Fatal(err)
		}
		eng := fakeEngine(0)
		final, err := (&Runner{Engine: eng, Store: st, Indexes: ShardIndexes(len(cells), shard, 2)}).Run(context.Background(), cells)
		if err != nil {
			t.Fatal(err)
		}
		if final.Total != 4 || final.Done != 4 {
			t.Fatalf("shard %d: %+v", shard, final)
		}
		for k := range st.Completed() {
			keys[k]++
		}
		st.Close()
	}
	if len(keys) != 8 {
		t.Fatalf("shards covered %d distinct cells, want 8", len(keys))
	}
	for k, n := range keys {
		if n != 1 {
			t.Errorf("cell %s ran in %d shards", k, n)
		}
	}
}

// TestEmptyShardRunsNothing pins the explicit-index-set semantics: a
// shard with no cells (more shards than cells) must run zero cells,
// not fall back to "nil means everything".
func TestEmptyShardRunsNothing(t *testing.T) {
	spec, cells := eightCells(t)
	idx := ShardIndexes(len(cells), 8, 9) // shard 8 of 9 over 8 cells
	if idx == nil || len(idx) != 0 {
		t.Fatalf("ShardIndexes = %#v, want empty non-nil", idx)
	}
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := fakeEngine(0)
	final, err := (&Runner{Engine: eng, Store: st, Indexes: idx}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Total != 0 || final.Executed != 0 {
		t.Fatalf("empty shard final = %+v, want zero cells", final)
	}
	if got := eng.Simulations(); got != 0 {
		t.Errorf("empty shard ran %d simulations", got)
	}
}

func TestRunnerRecordsFailures(t *testing.T) {
	spec, cells := eightCells(t)
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng := service.NewEngine(service.Config{
		Workers: 2,
		Run: func(spec service.Spec) ([]byte, error) {
			if spec.Bench == "KMN" {
				return nil, context.DeadlineExceeded
			}
			return json.Marshal(harness.CellResult{IPC: 1})
		},
	})
	final, err := (&Runner{Engine: eng, Store: st}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || final.Failed != 2 || final.Done != 6 {
		t.Fatalf("final = %+v", final)
	}
}

// TestRunnerStopsAtAppendFailure: once an append fails, no further
// cell is simulated. The results file closes during the 5th
// simulation, so that cell's append fails and the sweep stops after 5
// simulations, not 6.
func TestRunnerStopsAtAppendFailure(t *testing.T) {
	spec, cells := eightCells(t)
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var calls atomic.Int32
	eng := service.NewEngine(service.Config{
		Workers:      1,
		CacheEntries: -1,
		Run: func(spec service.Spec) ([]byte, error) {
			if calls.Add(1) == 5 {
				st.Close()
			}
			return json.Marshal(harness.CellResult{Bench: spec.Bench, Sched: spec.Sched, IPC: 2})
		},
	})
	final, err := (&Runner{Engine: eng, Store: st, Parallelism: 1}).Run(context.Background(), cells)
	if err == nil || final.State != StateFailed {
		t.Fatalf("final = %+v, err = %v; want a failed sweep", final, err)
	}
	if final.Executed != 5 {
		t.Errorf("executed = %d, want 5", final.Executed)
	}
	if got := eng.Simulations(); got != 5 {
		t.Errorf("simulations = %d, want 5", got)
	}
}
