// Package coord_test holds the crash-recovery and result-merging
// invariants the retired shard coordinator was tested for, checked
// against what provides them now: the sweep store's replay and resume,
// hand-sharded runs collapsed with sweep.MergeStore, and
// Manager.Recover at server start. The directory holds tests only; the
// code under test is package sweep.
package coord_test

import (
	"encoding/json"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sweep"
)

// fakeEngine fabricates CellResults instead of simulating, so the
// tests are instant. Simulations() still counts real executions — the
// "no settled cell re-ran" checks assert on it.
func fakeEngine() *service.Engine {
	return service.NewEngine(service.Config{
		Workers: 4,
		Run: func(spec service.Spec) ([]byte, error) {
			return json.Marshal(harness.CellResult{Bench: spec.Bench, Sched: spec.Sched, IPC: 2})
		},
	})
}

func eightCellSpec(t *testing.T) (sweep.Spec, []sweep.Cell) {
	t.Helper()
	spec := sweep.Spec{
		Name: "dist",
		Axes: sweep.Axes{
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

// waitDone waits for a managed run to end.
func waitDone(t *testing.T, run *sweep.Run) sweep.Progress {
	t.Helper()
	select {
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("sweep %s did not finish: %+v", run.Status().ID, run.Progress())
	}
	return run.Progress()
}

// okRecordsPerKey reads a store and counts "ok" records per cell key —
// the no-lost-no-duplicated-cells check.
func okRecordsPerKey(t *testing.T, dir string) map[string]int {
	t.Helper()
	recs, corrupt, err := sweep.ReadRecords(dir)
	if err != nil || corrupt != 0 {
		t.Fatalf("ReadRecords = (%d recs, %d corrupt, %v)", len(recs), corrupt, err)
	}
	out := map[string]int{}
	for _, r := range recs {
		if r.Status == sweep.StatusOK {
			out[r.Key]++
		}
	}
	return out
}

// crashedSweep runs spec under a manager over a scratch base directory
// until settle cells hold records, with the next cell blocked in the
// engine, optionally cancels it there, and copies the sweep directory
// into a fresh base — the disk a kill -9 at that moment leaves behind.
// It returns that base, the sweep's directory name and its run id. The
// original run is released and drained when the test ends.
func crashedSweep(t *testing.T, spec sweep.Spec, settle int, cancel bool) (base, name, id string) {
	t.Helper()
	var (
		mu      sync.Mutex
		started int
	)
	gate := make(chan struct{})
	eng := service.NewEngine(service.Config{
		Workers: 1,
		Run: func(s service.Spec) ([]byte, error) {
			mu.Lock()
			started++
			blocked := started > settle
			mu.Unlock()
			if blocked {
				<-gate
			}
			return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
		},
	})
	m := sweep.NewManager(eng, t.TempDir(), 1)
	run, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(gate)
		waitDone(t, run)
	})
	deadline := time.Now().Add(10 * time.Second)
	for run.Progress().Done < settle {
		if time.Now().After(deadline) {
			t.Fatalf("%d cells never settled: %+v", settle, run.Progress())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if cancel {
		if _, ok, err := m.Cancel(run.Status().ID); !ok || err != nil {
			t.Fatalf("Cancel = (%v, %v)", ok, err)
		}
	}
	src := run.Status().Dir
	base, name = t.TempDir(), filepath.Base(src)
	copyDir(t, src, filepath.Join(base, name))
	return base, name, run.Status().ID
}

// copyDir copies the regular files under src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
