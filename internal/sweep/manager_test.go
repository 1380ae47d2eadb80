package sweep

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/service"
)

// TestManagerStartSurfacesBothStoreErrors pins the failure-path fix:
// when the sweep directory can neither be created (a manifest already
// exists) nor resumed (it pins a different spec), the error must carry
// both causes instead of hiding the resume failure behind the create
// one.
func TestManagerStartSurfacesBothStoreErrors(t *testing.T) {
	base := t.TempDir()
	spec, _ := eightCells(t)

	// Occupy the spec's store directory with a different sweep, so
	// Create fails on the existing manifest and Open fails the spec-key
	// check.
	other := spec
	other.Name = "squatter"
	dir := filepath.Join(base, "sweep-"+spec.Key()[:16])
	st, err := Create(dir, "other-id", other, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()

	m := NewManager(fakeEngine(0), base, 0)
	_, err = m.Start(spec)
	if err == nil {
		t.Fatal("Start over a foreign store should fail")
	}
	msg := err.Error()
	if !strings.Contains(msg, "create failed") || !strings.Contains(msg, "not the requested spec") {
		t.Errorf("error hides a cause: %v", err)
	}
}

// TestRecoverReportsCompactedDirectoryAndResumesTheRest: a sweep
// directory an older version compacted must not strand the others.
// Recover names it in its error and still resumes the interrupted
// sweep beside it, and a re-POST of its spec is refused the same way.
func TestRecoverReportsCompactedDirectoryAndResumesTheRest(t *testing.T) {
	base := t.TempDir()
	plain, _ := eightCells(t)
	old := plain
	old.Name = "compacted"
	partialSweep(t, base, plain, fakeEngine(0), nil)
	partialSweep(t, base, old, fakeEngine(0), nil)
	oldDir := keyDir(base, old)
	compactLikeAnOlderVersion(t, oldDir)

	m := NewManager(fakeEngine(0), base, 0)
	n, err := m.Recover()
	if n != 1 || err == nil || !strings.Contains(err.Error(), oldDir) {
		t.Fatalf("Recover = (%d, %v), want 1 resumed and an error naming %s", n, err, oldDir)
	}
	resumed(t, m, plain)
	if _, err := m.Start(old); err == nil || !strings.Contains(err.Error(), oldDir) {
		t.Errorf("Start over the compacted directory = %v, want an error naming %s", err, oldDir)
	}
}

// TestRecoverIsANoopWithoutSweeps: Recover must tolerate a base
// directory that does not exist yet — the common first-boot case.
func TestRecoverIsANoopWithoutSweeps(t *testing.T) {
	m := NewManager(fakeEngine(0), filepath.Join(t.TempDir(), "not-created-yet"), 0)
	if n, err := m.Recover(); n != 0 || err != nil {
		t.Fatalf("Recover over a missing base directory = (%d, %v), want a no-op", n, err)
	}
}

// TestSpecKeyIgnoresDistributed: distributed is parsed and ignored —
// an older spec that still sets it must share one store with the same
// grid without it.
func TestSpecKeyIgnoresDistributed(t *testing.T) {
	spec, _ := eightCells(t)
	dist := spec
	dist.Distributed = true
	if spec.Key() != dist.Key() {
		t.Error("Spec.Key must not depend on Distributed")
	}
}

// TestCancelOlderRunLeavesLiveManifest: DELETE of an earlier run's id
// must not write over the manifest of the run that now owns the
// directory. Run A ends failed on a store write error with two cells
// unsettled, a re-POST starts run B, and A is cancelled while B runs:
// the manifest must still name B, uncancelled, so a restart over the
// directory resumes the sweep.
func TestCancelOlderRunLeavesLiveManifest(t *testing.T) {
	plain, _ := eightCells(t)
	gate := make(chan struct{})
	eng := service.NewEngine(service.Config{
		Workers: 1,
		// No cache: B must execute the cells A lost, not replay them.
		CacheEntries: -1,
		Run: func(s service.Spec) ([]byte, error) {
			if s.Bench == "KMN" && s.Sched == "GTO" {
				<-gate
			}
			return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
		},
	})
	base := t.TempDir()
	m := NewManager(eng, base, 1)

	a, err := m.Start(plain)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "six settled cells", func() bool { return a.Progress().Done == 6 })
	// Close A's results file under it, so its next append fails.
	a.store.mu.Lock()
	a.store.f.Close()
	a.store.mu.Unlock()
	gate <- struct{}{}
	if final := finish(t, a); final.State != StateFailed || final.Done != 6 {
		t.Fatalf("run A = %+v, want failed with 6 cells done", final)
	}

	b, err := m.Start(plain)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(gate)
		finish(t, b)
	})
	if b.id == a.id {
		t.Fatalf("re-POST returned run A (%s)", a.id)
	}
	if _, ok, err := m.Cancel(a.id); !ok || err != nil {
		t.Fatalf("Cancel(A) = (%v, %v)", ok, err)
	}
	if man := manifestOf(t, base, plain); man.ID != b.id || man.Cancelled {
		t.Errorf("manifest after DELETE of A: id=%s cancelled=%v, want %s uncancelled", man.ID, man.Cancelled, b.id)
	}
	if p := b.Progress(); p.State != StateRunning {
		t.Fatalf("run B = %+v, want it still running", p)
	}

	// A restart over the directory as it stands resumes the sweep.
	restart := t.TempDir()
	if err := os.MkdirAll(keyDir(restart, plain), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{ManifestFile, ResultsFile} {
		data, err := os.ReadFile(filepath.Join(keyDir(base, plain), name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(keyDir(restart, plain), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	again := NewManager(fakeEngine(0), restart, 0)
	if n, err := again.Recover(); n != 1 || err != nil {
		t.Fatalf("Recover after the restart = (%d, %v), want the sweep resumed", n, err)
	}
	if run, ok := again.Get(b.id); !ok {
		t.Errorf("restart did not resume under B's id %s", b.id)
	} else {
		finish(t, run)
	}
}

// TestManagerWritesSweepCellRED follows a sweep into the manager's RED
// registry: the store observes every record it accepts into a series
// labeled by the sweep id, so the exposition counts each cell once and
// each failed cell as an error.
func TestManagerWritesSweepCellRED(t *testing.T) {
	spec, cells := eightCells(t)
	eng := service.NewEngine(service.Config{
		Workers: 2,
		Run: func(s service.Spec) ([]byte, error) {
			if s.Bench == "KMN" && s.Sched == "CCWS" {
				return nil, errors.New("injected cell failure")
			}
			return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
		},
	})
	m := NewManager(eng, t.TempDir(), 0)
	m.SetRED(metrics.NewRED())
	run, err := m.Start(spec)
	if err != nil {
		t.Fatal(err)
	}
	if final := finish(t, run); final.State != StateDone || final.Failed != 1 {
		t.Fatalf("final = %+v, want done with 1 failed cell", final)
	}

	var sb strings.Builder
	p := metrics.NewPromWriter(&sb)
	m.WriteProm(p)
	out := sb.String()
	label := `{sweep="` + run.id + `"} `
	for _, want := range []string{
		"ciao_sweep_cell_requests_total" + label + strconv.Itoa(len(cells)) + "\n",
		"ciao_sweep_cell_request_errors_total" + label + "1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// The per-sweep families are exactly requests, errors and duration,
	// in order: nothing sheds a cell or counts its bytes.
	var families []string
	for _, line := range strings.Split(out, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE ciao_sweep_cell_"); ok {
			families = append(families, f)
		}
	}
	want := []string{
		"requests_total counter",
		"request_errors_total counter",
		"request_seconds histogram",
	}
	if !slices.Equal(families, want) {
		t.Errorf("ciao_sweep_cell_ families = %q, want %q", families, want)
	}
}
