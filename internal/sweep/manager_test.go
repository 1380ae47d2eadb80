package sweep

import (
	"path/filepath"
	"strings"
	"testing"
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
