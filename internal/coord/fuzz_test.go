package coord_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/sweep"
)

// maxLineBytes mirrors the store's per-line cap: a longer line is
// corrupt whatever it holds.
const maxLineBytes = 1 << 20

// FuzzJournalReplay feeds arbitrary bytes — corrupted, truncated,
// interleaved, bit-flipped result logs — into the replay a sweep store
// runs when it reopens after a crash, and asserts the properties
// recovery stands on: replay never panics or fails; it reaches exactly
// the settled and failed cell sets an independent model of the
// last-ok-wins rule derives, so a late "failed" line never resurrects
// a cell whose success is already stored; it counts corrupt lines
// instead of mistaking them for cells; it cuts a torn tail from the
// file so the next append lands on a line of its own; and replaying
// again reaches the same state.
//
// Run the seed corpus with `go test -run FuzzJournalReplay`; fuzz with
// `go test -fuzz FuzzJournalReplay ./internal/coord`.
func FuzzJournalReplay(f *testing.F) {
	rec := func(key, status string, ipc float64) string {
		b, err := json.Marshal(sweep.CellRecord{Key: key, Bench: "SYRK", Sched: "GTO", Status: status, IPC: ipc})
		if err != nil {
			f.Fatal(err)
		}
		return string(b) + "\n"
	}
	seeds := []string{
		// The happy path: three settled cells.
		rec("a", sweep.StatusOK, 1) + rec("b", sweep.StatusOK, 2) + rec("c", sweep.StatusOK, 3),
		// A failure a resume retried into a success, and one still failed.
		rec("a", sweep.StatusFailed, 0) + rec("b", sweep.StatusFailed, 0) + rec("a", sweep.StatusOK, 1.5),
		// Resurrection attempts: a late failure and a second success
		// after a cell settled.
		rec("a", sweep.StatusOK, 1) + rec("a", sweep.StatusFailed, 0) + rec("a", sweep.StatusOK, 4),
		// A torn tail: a kill mid-append.
		rec("a", sweep.StatusOK, 1) + rec("b", sweep.StatusOK, 2) + `{"key":"c","status":"ok","ip`,
		// Interleaved garbage: not JSON, a keyless record, an unknown status.
		"not json at all\n" + `{"status":"ok","ipc":3}` + "\n" + rec("a", "running", 0) + rec("b", sweep.StatusOK, 2),
		// Blank and CRLF-terminated lines.
		"\n  \n" + rec("a", sweep.StatusOK, 1)[:len(rec("a", sweep.StatusOK, 1))-1] + "\r\n\n",
		"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec := sweep.Spec{Name: "fuzz", Axes: sweep.Axes{Schedulers: []string{"GTO"}, Benchmarks: []string{"SYRK"}}}
		dir := filepath.Join(t.TempDir(), "s")
		st, err := sweep.Create(dir, "fuzz-1", spec, 1)
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		results := filepath.Join(dir, sweep.ResultsFile)
		if err := os.WriteFile(results, data, 0o644); err != nil {
			t.Fatal(err)
		}

		st, err = sweep.Open(dir, spec)
		if err != nil {
			t.Fatalf("replay of an existing log: %v", err)
		}
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		done, failed, corrupt := replayModel(complete)
		checkReplay(t, "replay", st, done, failed, corrupt)
		if onDisk, err := os.ReadFile(results); err != nil || !bytes.Equal(onDisk, complete) {
			t.Fatalf("after replay the log holds %q (%v), want its complete lines %q", onDisk, err, complete)
		}

		// The next append is a line of its own, and a second replay
		// reaches the same state plus that record.
		if err := st.Append(sweep.CellRecord{Key: "after-replay", Status: sweep.StatusOK, IPC: 1}); err != nil {
			t.Fatal(err)
		}
		st.Close()
		st, err = sweep.Open(dir, spec)
		if err != nil {
			t.Fatalf("second replay: %v", err)
		}
		defer st.Close()
		done["after-replay"] = 1
		delete(failed, "after-replay")
		checkReplay(t, "second replay", st, done, failed, corrupt)
	})
}

// replayModel derives, independently of the store, what replaying the
// complete lines of a result log must yield: the IPC of each cell's
// last ok record, the cells with a failure and no success, and how
// many non-blank lines are unusable.
func replayModel(complete []byte) (done map[string]float64, failed map[string]struct{}, corrupt int) {
	done, failed = map[string]float64{}, map[string]struct{}{}
	for _, line := range bytes.SplitAfter(complete, []byte("\n")) {
		switch {
		case len(line) == 0:
		case len(line) > maxLineBytes:
			corrupt++
		case len(bytes.TrimSpace(line)) == 0:
		default:
			var rec sweep.CellRecord
			if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
				corrupt++
				continue
			}
			switch rec.Status {
			case sweep.StatusOK:
				done[rec.Key] = rec.IPC
				delete(failed, rec.Key)
			case sweep.StatusFailed:
				if _, ok := done[rec.Key]; !ok {
					failed[rec.Key] = struct{}{}
				}
			}
		}
	}
	return done, failed, corrupt
}

func checkReplay(t *testing.T, what string, st *sweep.Store, done map[string]float64, failed map[string]struct{}, corrupt int) {
	t.Helper()
	if got := st.Completed(); !reflect.DeepEqual(got, done) {
		t.Fatalf("%s: settled cells %v, want %v", what, got, done)
	}
	if got := st.FailedCells(); !reflect.DeepEqual(got, failed) {
		t.Fatalf("%s: failed cells %v, want %v", what, got, failed)
	}
	if got := st.CorruptLines(); got != corrupt {
		t.Fatalf("%s: %d corrupt lines, want %d", what, got, corrupt)
	}
}
