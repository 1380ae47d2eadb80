package coord_test

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"testing"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sweep"
)

// TestFailedCellsReRunOnResume: resuming a store (ciaosweep -resume, a
// re-POST) re-runs exactly the cells whose last record is a failure,
// skips the settled ones, and ends with one ok record per cell.
func TestFailedCellsReRunOnResume(t *testing.T) {
	spec, cells := eightCellSpec(t)
	dir := filepath.Join(t.TempDir(), "s")
	store, err := sweep.Create(dir, "run-1", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	flaky := service.NewEngine(service.Config{
		Workers: 4,
		Run: func(s service.Spec) ([]byte, error) {
			if s.Bench == "KMN" {
				return nil, context.DeadlineExceeded
			}
			return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
		},
	})
	first, err := (&sweep.Runner{Engine: flaky, Store: store}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if first.State != sweep.StateDone || first.Done != 6 || first.Failed != 2 {
		t.Fatalf("flaky final = %+v, want 6 done / 2 failed", first)
	}
	store.Close()

	// Second run, healthy engine: only the two failed cells re-run.
	st2, err := sweep.Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if n := len(st2.FailedCells()); n != 2 {
		t.Fatalf("reopened store holds %d failed cells, want 2", n)
	}
	eng := fakeEngine()
	final, err := (&sweep.Runner{Engine: eng, Store: st2}).Run(context.Background(), cells)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != sweep.StateDone || final.Done != 8 || final.Failed != 0 || final.Skipped != 6 {
		t.Fatalf("retry final = %+v, want 8 done / 6 skipped", final)
	}
	if n := eng.Simulations(); n != 2 {
		t.Errorf("retry ran %d cells, want the 2 failures", n)
	}
	if n := len(st2.FailedCells()); n != 0 {
		t.Errorf("%d cells still failed after the retry", n)
	}
	for k, n := range okRecordsPerKey(t, dir) {
		if n != 1 {
			t.Errorf("cell %s has %d ok records after failed-then-ok", k, n)
		}
	}
}

// TestDistributedMatchesLocalBytes is the result-identity acceptance
// check: the same spec run single-process, run by a manager with the
// older "distributed": true flag (which now runs in-process), and run
// as two hand-shards (ciaosweep -shard 0/2 and 1/2, real simulations,
// distinct engines) collapsed with MergeStore, must produce
// byte-identical CellResult JSON per cell.
func TestDistributedMatchesLocalBytes(t *testing.T) {
	spec := sweep.Spec{
		Name: "bytes",
		Axes: sweep.Axes{
			Schedulers: []string{"GTO", "CIAO-C"},
			Benchmarks: []string{"SYRK", "ATAX"},
		},
		Options: service.OptionSpec{InstrPerWarp: 400, Seed: 7},
	}
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	base := t.TempDir()
	realEngine := func() *service.Engine { return service.NewEngine(service.Config{Workers: 2}) }
	runInto := func(dir string, indexes []int) {
		st, err := sweep.Create(dir, filepath.Base(dir), spec, len(cells))
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := (&sweep.Runner{Engine: realEngine(), Store: st, Indexes: indexes}).Run(context.Background(), cells); err != nil {
			t.Fatal(err)
		}
	}

	// Single-process reference run.
	localDir := filepath.Join(base, "local")
	runInto(localDir, nil)

	// The older distributed flag, through a manager.
	flagged := spec
	flagged.Distributed = true
	run, err := sweep.NewManager(realEngine(), filepath.Join(base, "served"), 0).Start(flagged)
	if err != nil {
		t.Fatal(err)
	}
	if final := waitDone(t, run); final.State != sweep.StateDone || final.Done != len(cells) {
		t.Fatalf("flagged run = %+v", final)
	}

	// Two hand-shards, merged.
	mergedDir := filepath.Join(base, "merged")
	merged, err := sweep.Create(mergedDir, "merged", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		shardDir := filepath.Join(base, "shard", string(rune('0'+i)))
		runInto(shardDir, sweep.ShardIndexes(len(cells), i, 2))
		if _, _, err := sweep.MergeStore(merged, shardDir); err != nil {
			t.Fatal(err)
		}
	}
	merged.Close()

	results := func(dir string) map[string][]byte {
		recs, corrupt, err := sweep.ReadRecords(dir)
		if err != nil || corrupt != 0 {
			t.Fatalf("ReadRecords(%s) = (%d, %v)", dir, corrupt, err)
		}
		out := map[string][]byte{}
		for _, r := range recs {
			if r.Status == sweep.StatusOK {
				out[r.Key] = r.Result
			}
		}
		return out
	}
	local := results(localDir)
	if len(local) != len(cells) {
		t.Fatalf("local run holds %d ok cells, want %d", len(local), len(cells))
	}
	for what, dir := range map[string]string{"distributed-flag": run.Status().Dir, "merged-shard": mergedDir} {
		got := results(dir)
		if len(got) != len(cells) {
			t.Errorf("%s store holds %d ok cells, want %d", what, len(got), len(cells))
		}
		for k, want := range local {
			if b, ok := got[k]; !ok {
				t.Errorf("cell %s missing from the %s store", k, what)
			} else if !bytes.Equal(b, want) {
				t.Errorf("cell %s: %s CellResult differs from the single-process run", k, what)
			}
		}
	}
}
