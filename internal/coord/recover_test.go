package coord_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// TestCoordinatorCrashRecovery is the crash-recovery acceptance check:
// a server killed mid-sweep and restarted on the same directory
// finishes the sweep under the original id, re-runs no cell that had a
// settled success before the crash, leaves the pre-crash bytes of the
// results file untouched, and ends with exactly one ok record per
// cell. A further restart leaves the finished sweep alone.
func TestCoordinatorCrashRecovery(t *testing.T) {
	spec, cells := eightCellSpec(t)
	base, name, id := crashedSweep(t, spec, 3, false)
	dir := filepath.Join(base, name)
	preBytes, err := os.ReadFile(filepath.Join(dir, sweep.ResultsFile))
	if err != nil {
		t.Fatal(err)
	}

	eng := fakeEngine()
	m := sweep.NewManager(eng, base, 0)
	if n, err := m.Recover(); n != 1 || err != nil {
		t.Fatalf("Recover = (%d, %v), want 1 resumed sweep", n, err)
	}
	run, ok := m.Get(id)
	if !ok {
		t.Fatalf("no run under the original id %s", id)
	}
	final := waitDone(t, run)
	if final.State != sweep.StateDone || final.Done != len(cells) || final.Skipped != 3 || final.Failed != 0 {
		t.Fatalf("final = %+v, want 8 done with the 3 pre-crash cells skipped", final)
	}
	if n := eng.Simulations(); n != 5 {
		t.Errorf("post-restart engine ran %d cells, want 5 (settled successes must not re-run)", n)
	}

	post, err := os.ReadFile(filepath.Join(dir, sweep.ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(post, preBytes) {
		t.Error("recovery rewrote pre-crash results (prefix mismatch)")
	}
	perKey := okRecordsPerKey(t, dir)
	if len(perKey) != len(cells) {
		t.Fatalf("ok records for %d cells, want %d", len(perKey), len(cells))
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("cell %s has %d ok records after recovery, want exactly 1", k, n)
		}
	}

	if n, err := sweep.NewManager(fakeEngine(), base, 0).Recover(); n != 0 || err != nil {
		t.Fatalf("Recover after the sweep finished = (%d, %v), want nothing", n, err)
	}
}

// TestRecoverNothingToDo: a missing base directory, a sweep that ran to
// done and a sweep cancelled mid-run all recover to nothing — no run
// registered, no cell executed.
func TestRecoverNothingToDo(t *testing.T) {
	spec, _ := eightCellSpec(t)
	eng := fakeEngine()
	m := sweep.NewManager(eng, filepath.Join(t.TempDir(), "missing"), 0)
	if n, err := m.Recover(); n != 0 || err != nil {
		t.Fatalf("Recover of a missing base = (%d, %v), want nothing", n, err)
	}

	finished, _, _ := crashedSweep(t, spec, 8, false)
	cancelled, _, _ := crashedSweep(t, spec, 3, true)
	for what, base := range map[string]string{"finished": finished, "cancelled": cancelled} {
		m := sweep.NewManager(eng, base, 0)
		if n, err := m.Recover(); n != 0 || err != nil {
			t.Errorf("Recover of a %s sweep = (%d, %v), want nothing", what, n, err)
		}
		if runs := m.List(); len(runs) != 0 {
			t.Errorf("Recover of a %s sweep registered runs: %+v", what, runs)
		}
	}
	if n := eng.Simulations(); n != 0 {
		t.Errorf("recovering nothing ran %d cells", n)
	}
}

// TestNeedsRecovery: whether a sweep directory is resumed at boot
// depends on its store and manifest alone. A coordinator journal an
// older build left behind — finished, or unfinished with an owner URL
// in its snapshot and an adopt hand-off line — is neither read nor
// rewritten: an interrupted sweep resumes locally with or without one,
// and a settled sweep stays settled.
func TestNeedsRecovery(t *testing.T) {
	spec, cells := eightCellSpec(t)
	olderBuild := strings.Join([]string{
		`{"t":"snapshot","sweep":"run-old","owner":"http://old-a:1","shards":[` +
			`{"id":0,"indexes":[0,1,2,3],"state":"pending"},` +
			`{"id":1,"indexes":[4,5,6,7],"state":"pending"}]}`,
		`{"t":"lease","shard":0,"worker":"w1","expires":"2026-07-29T00:00:00Z","leases":1}`,
		`{"t":"adopt","sweep":"run-old","owner":"http://old-b:2"}`,
	}, "\n") + "\n"
	finished := `{"t":"snapshot","sweep":"run-done","shards":[{"id":0,"indexes":[0,1,2,3,4,5,6,7],"state":"done"}]}` + "\n" +
		`{"t":"finish","state":"done"}` + "\n"

	for _, tc := range []struct {
		name    string
		settled int    // cells with records at the crash
		journal string // "" = no journal
		want    int
	}{
		{"unfinished journal with owner and adopt lines", 2, olderBuild, 1},
		{"finished journal", len(cells), finished, 0},
		{"no journal", 2, "", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base, name, id := crashedSweep(t, spec, tc.settled, false)
			journal := filepath.Join(base, name, "coord.journal.ndjson")
			if tc.journal != "" {
				if err := os.WriteFile(journal, []byte(tc.journal), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			m := sweep.NewManager(fakeEngine(), base, 0)
			n, err := m.Recover()
			if n != tc.want || err != nil {
				t.Fatalf("Recover = (%d, %v), want %d", n, err, tc.want)
			}
			if n > 0 {
				run, ok := m.Get(id)
				if !ok {
					t.Fatalf("no run under the manifest id %s", id)
				}
				final := waitDone(t, run)
				if final.State != sweep.StateDone || final.Done != len(cells) || final.Skipped != tc.settled {
					t.Fatalf("resumed run = %+v, want %d done with %d skipped", final, len(cells), tc.settled)
				}
			}
			if tc.journal != "" {
				if b, err := os.ReadFile(journal); err != nil || string(b) != tc.journal {
					t.Errorf("left-over journal changed: %q, %v", b, err)
				}
			}
		})
	}
}

// TestRecoveryReopensDoneShardWithLostResults: a power failure can lose
// a finished sweep's unsynced result lines and tear the last one. A
// plain sweep's "done" lives in its records alone, so the next boot
// sees the lost cells as unsettled, resumes the sweep, and re-runs
// exactly those cells.
func TestRecoveryReopensDoneShardWithLostResults(t *testing.T) {
	spec, cells := eightCellSpec(t)
	base, name, id := crashedSweep(t, spec, len(cells), false)
	results := filepath.Join(base, name, sweep.ResultsFile)
	data, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	// Keep three complete lines and half of the fourth.
	lines := bytes.SplitAfter(data, []byte("\n"))
	kept := append(bytes.Join(lines[:3], nil), lines[3][:len(lines[3])/2]...)
	if err := os.WriteFile(results, kept, 0o644); err != nil {
		t.Fatal(err)
	}

	eng := fakeEngine()
	m := sweep.NewManager(eng, base, 0)
	if n, err := m.Recover(); n != 1 || err != nil {
		t.Fatalf("Recover = (%d, %v), want the sweep with lost results resumed", n, err)
	}
	run, ok := m.Get(id)
	if !ok {
		t.Fatalf("no run under the manifest id %s", id)
	}
	final := waitDone(t, run)
	if final.State != sweep.StateDone || final.Done != len(cells) || final.Skipped != 3 {
		t.Fatalf("final = %+v, want 8 done with the 3 surviving cells skipped", final)
	}
	if n := eng.Simulations(); n != 5 {
		t.Errorf("re-ran %d cells, want the 5 whose results were lost", n)
	}
	for k, n := range okRecordsPerKey(t, filepath.Join(base, name)) {
		if n != 1 {
			t.Errorf("cell %s has %d ok records, want exactly 1", k, n)
		}
	}
}

// TestManagerRecoverServesRecoveredSweep drives the ciaoserve boot
// path: a base directory holding a crashed sweep, a fresh manager,
// Manager.Recover, and the HTTP API serving the resumed run under its
// original id — listed, pollable to done, its results streamable.
func TestManagerRecoverServesRecoveredSweep(t *testing.T) {
	spec, cells := eightCellSpec(t)
	base, _, id := crashedSweep(t, spec, 2, false)
	m := sweep.NewManager(fakeEngine(), base, 0)
	if n, err := m.Recover(); n != 1 || err != nil {
		t.Fatalf("Recover = (%d, %v), want 1 recovered sweep", n, err)
	}
	srv := httptest.NewServer(m.Handler())
	defer srv.Close()

	var list []sweep.Status
	getJSON(t, srv.URL+"/sweeps", &list)
	if len(list) != 1 || list[0].ID != id {
		t.Fatalf("GET /sweeps = %+v, want the recovered sweep %s", list, id)
	}
	run, ok := m.Get(id)
	if !ok {
		t.Fatal("recovered run not served under its original id")
	}
	waitDone(t, run)
	var st sweep.Status
	getJSON(t, srv.URL+"/sweeps/"+id, &st)
	if st.ID != id || st.State != sweep.StateDone || st.Done != len(cells) || st.Skipped != 2 || st.Failed != 0 {
		t.Fatalf("GET /sweeps/%s = %+v, want 8 done with the 2 pre-crash cells skipped", id, st)
	}
	body := getBody(t, srv.URL+"/sweeps/"+id+"/results?follow=0")
	if n := bytes.Count(body, []byte("\n")); n != len(cells) {
		t.Errorf("results stream holds %d records, want %d", n, len(cells))
	}

	// A second scan finds nothing left to resume.
	if n, err := m.Recover(); n != 0 || err != nil {
		t.Fatalf("second Recover = (%d, %v), want nothing to do", n, err)
	}
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d, %v: %s", url, resp.StatusCode, err, b)
	}
	return b
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(getBody(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}
