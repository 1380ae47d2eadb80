package sweep

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// resumeID is the id every resume-contract directory records in its
// manifest; Recover must register the resumed run under exactly it.
func resumeID(spec Spec) string { return "sweep-7-" + spec.Key()[:12] }

// keyDir is the store directory a manager over base gives spec.
func keyDir(base string, spec Spec) string { return filepath.Join(base, "sweep-"+spec.Key()[:16]) }

// partialSweep builds the store directory a manager would own for spec
// under base, settles the cells of shard 0 of 2 through a Runner, and
// closes the store — a sweep whose server died halfway. A non-nil stamp
// edits the manifest before the close.
func partialSweep(t *testing.T, base string, spec Spec, eng *service.Engine, stamp func(*Store) error) {
	t.Helper()
	cells, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Create(keyDir(base, spec), resumeID(spec), spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := &Runner{Engine: eng, Store: st, Indexes: ShardIndexes(len(cells), 0, 2)}
	if _, err := r.Run(context.Background(), cells); err != nil {
		t.Fatal(err)
	}
	if stamp != nil {
		if err := stamp(st); err != nil {
			t.Fatal(err)
		}
	}
}

// finish waits for a run to end and returns its final progress.
func finish(t *testing.T, run *Run) Progress {
	t.Helper()
	select {
	case <-run.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("run %s did not finish", run.id)
	}
	return run.Progress()
}

// resumed looks up the run Recover registered for spec and waits for it
// to finish: all cells done and the shard-0 half skipped.
func resumed(t *testing.T, m *Manager, spec Spec) Progress {
	t.Helper()
	run, ok := m.Get(resumeID(spec))
	if !ok {
		t.Fatalf("no run under the manifest id %s", resumeID(spec))
	}
	final := finish(t, run)
	if final.State != StateDone || final.Done != final.Total || final.Failed != 0 {
		t.Fatalf("resumed run = %+v", final)
	}
	if want := (final.Total + 1) / 2; final.Skipped != want {
		t.Errorf("resumed run skipped %d cells, want the %d settled before the crash", final.Skipped, want)
	}
	return final
}

func manifestOf(t *testing.T, base string, spec Spec) Manifest {
	t.Helper()
	man, err := readManifest(keyDir(base, spec))
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// TestRecoverResumeContract pins which sweep directories a restarted
// server resumes: exactly those with an unsettled cell and no cancelled
// stamp, under the id their manifest records, through the ordinary
// store resume (settled cells skipped).
func TestRecoverResumeContract(t *testing.T) {
	plain, _ := eightCells(t)
	cases := []struct {
		name        string
		setup       func(t *testing.T, base string)
		wantResumed int
		wantErr     string // substring of Recover's error; "" = none
		check       func(t *testing.T, m *Manager, base string)
	}{
		{
			name:        "interrupted plain sweep resumes under its manifest id",
			setup:       func(t *testing.T, base string) { partialSweep(t, base, plain, fakeEngine(0), nil) },
			wantResumed: 1,
			check: func(t *testing.T, m *Manager, base string) {
				resumed(t, m, plain)
				// A later start must not mint the resumed run's id.
				other := plain
				other.Name = "other"
				run, err := m.Start(other)
				if err != nil {
					t.Fatal(err)
				}
				finish(t, run)
				if !strings.HasPrefix(run.id, "sweep-8-") {
					t.Errorf("next id = %s, want the sequence past the resumed sweep-7", run.id)
				}
			},
		},
		{
			name: "settled sweep with failed cells is not re-run",
			setup: func(t *testing.T, base string) {
				cells, err := plain.Expand()
				if err != nil {
					t.Fatal(err)
				}
				eng := service.NewEngine(service.Config{Workers: 2, Run: func(s service.Spec) ([]byte, error) {
					if s.Bench == "ATAX" {
						return nil, errors.New("injected failure")
					}
					return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
				}})
				st, err := Create(keyDir(base, plain), resumeID(plain), plain, len(cells))
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				final, err := (&Runner{Engine: eng, Store: st}).Run(context.Background(), cells)
				if err != nil || final.Failed != 2 || final.Done != 6 {
					t.Fatalf("setup run = %+v, %v", final, err)
				}
			},
			check: func(t *testing.T, m *Manager, base string) {
				// Only a re-POST retries the failures, and it runs nothing else.
				run, err := m.Start(plain)
				if err != nil {
					t.Fatal(err)
				}
				final := finish(t, run)
				if final.State != StateDone || final.Done != 8 || final.Skipped != 6 || final.Executed != 2 {
					t.Fatalf("re-POSTed run = %+v, want the 2 failed cells re-run", final)
				}
			},
		},
		{
			name:  "cancelled sweep waits for a re-POST, which lifts the stamp",
			setup: func(t *testing.T, base string) { partialSweep(t, base, plain, fakeEngine(0), (*Store).MarkCancelled) },
			check: func(t *testing.T, m *Manager, base string) {
				run, err := m.Start(plain)
				if err != nil {
					t.Fatal(err)
				}
				final := finish(t, run)
				if final.State != StateDone || final.Done != 8 || final.Skipped != 4 {
					t.Fatalf("re-POSTed run = %+v", final)
				}
				if man := manifestOf(t, base, plain); man.Cancelled || man.ID != run.id {
					t.Errorf("manifest after re-POST: cancelled=%v id=%s, want lifted and %s", man.Cancelled, man.ID, run.id)
				}
			},
		},
		{
			name: "sweep cancelled while cells still drain is not resumed",
			setup: func(t *testing.T, base string) {
				// The last cell blocks in the engine; cancel once the other
				// seven settled, so the first run is still draining when the
				// second manager recovers.
				eng, release := gatedEngine("KMN", "CCWS")
				first := NewManager(eng, base, 0)
				run, err := first.Start(plain)
				if err != nil {
					t.Fatal(err)
				}
				waitFor(t, "seven settled cells", func() bool { return run.Progress().Done == 7 })
				if _, ok, err := first.Cancel(run.id); !ok || err != nil {
					t.Fatalf("Cancel = (%v, %v)", ok, err)
				}
				select {
				case <-run.Done():
					t.Fatal("run drained before the second manager recovered")
				default:
				}
				t.Cleanup(func() {
					release()
					finish(t, run)
				})
			},
		},
		{
			name: "search sweep is refused by name while the plain sweep resumes",
			setup: func(t *testing.T, base string) {
				partialSweep(t, base, plain, fakeEngine(0), nil)
				dir := filepath.Join(base, "sweep-cb7c5db4c34ad5ab")
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, ManifestFile), []byte(searchManifest), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantResumed: 1,
			wantErr:     "sweep-cb7c5db4c34ad5ab",
			check:       func(t *testing.T, m *Manager, base string) { resumed(t, m, plain) },
		},
		{
			name: "legacy distributed spec with a coordinator journal resumes locally",
			setup: func(t *testing.T, base string) {
				spec := legacySpec(t)
				partialSweep(t, base, spec, fakeEngine(0), nil)
				journal := filepath.Join(keyDir(base, spec), "coord.journal.ndjson")
				if err := os.WriteFile(journal, []byte(`{"t":"register","sweep":"x"}`+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
			},
			wantResumed: 1,
			check:       func(t *testing.T, m *Manager, base string) { resumed(t, m, legacySpec(t)) },
		},
		{
			name: "corrupt manifest is reported while the other sweeps resume",
			setup: func(t *testing.T, base string) {
				partialSweep(t, base, plain, fakeEngine(0), nil)
				bad := filepath.Join(base, "sweep-badbadbadbadbadb")
				if err := os.MkdirAll(bad, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(bad, ManifestFile), []byte("{not json"), 0o644); err != nil {
					t.Fatal(err)
				}
				// A directory without a manifest is skipped silently.
				if err := os.MkdirAll(filepath.Join(base, "sweep-0000000000000000"), 0o755); err != nil {
					t.Fatal(err)
				}
			},
			wantResumed: 1,
			wantErr:     "sweep-badbadbadbadbadb",
			check:       func(t *testing.T, m *Manager, base string) { resumed(t, m, plain) },
		},
		{
			name: "store kept under the base by another tool is left alone",
			setup: func(t *testing.T, base string) {
				cells, err := plain.Expand()
				if err != nil {
					t.Fatal(err)
				}
				st, err := Create(filepath.Join(base, plain.Name), plain.Name, plain, len(cells))
				if err != nil {
					t.Fatal(err)
				}
				st.Close()
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := t.TempDir()
			tc.setup(t, base)
			m := NewManager(fakeEngine(0), base, 0)
			n, err := m.Recover()
			if n != tc.wantResumed {
				t.Errorf("Recover resumed %d sweep(s), want %d", n, tc.wantResumed)
			}
			switch {
			case tc.wantErr == "" && err != nil:
				t.Errorf("Recover error: %v", err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Errorf("Recover error = %v, want one naming %q", err, tc.wantErr)
			}
			if tc.wantResumed == 0 && len(m.List()) != 0 {
				t.Errorf("Recover registered runs: %+v", m.List())
			}
			if tc.check != nil {
				tc.check(t, m, base)
			}
		})
	}
}

// searchManifest is the manifest an older version wrote for an
// interrupted successive-halving search, in the directory its spec key
// named: sweep-cb7c5db4c34ad5ab.
const searchManifest = `{
  "id": "sweep-3-cb7c5db4c34a",
  "spec": {
    "name": "halving",
    "axes": {"schedulers": ["GTO"], "benchmarks": ["SYRK"]},
    "options": {},
    "search": {
      "axes": [{"param": "mshr_entries", "min": 8, "max": 128, "pow2": true}],
      "rounds": 3, "top_k": 1, "grid": 3
    }
  },
  "spec_key": "cb7c5db4c34ad5ab1849fca8c1ad202a97473d5a6703f7585f52eb057b1e8767",
  "created": "2026-10-17T22:53:05Z",
  "total_cells": 3,
  "search_rounds": [{"round": 0, "points": 3, "new_cells": 3, "total_issued": 3}]
}
`

// legacySpec decodes, strictly, a spec written for the retired
// multi-host runner: it still parses, and runs in-process.
func legacySpec(t *testing.T) Spec {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(`{
		"name": "legacy",
		"distributed": true,
		"requires": ["fleet"],
		"axes": {
			"schedulers": ["GTO"],
			"benchmarks": ["SYRK", "ATAX"],
			"configs": [{"name": "base"}, {"name": "big", "requires": ["bigmem"], "l1_size_kb": 32}]
		}
	}`))
	dec.DisallowUnknownFields()
	var spec Spec
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	return spec
}
