package coord

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sweep"
)

// FuzzJournalReplay feeds arbitrary bytes — corrupted, truncated,
// interleaved, bit-flipped journals — into replayJournal and asserts
// the two properties recovery stands on: replay never panics, and a
// shard retired (or snapshotted done) since the last valid snapshot is
// never resurrected into a leasable state. The second property is what
// keeps a flipped bit in a crashed server's journal from re-running —
// and double-counting — cells whose results are already in the store.
//
// Run the seed corpus with `go test -run FuzzJournalReplay`; fuzz with
// `go test -fuzz FuzzJournalReplay ./internal/coord`.
func FuzzJournalReplay(f *testing.F) {
	snapshot := `{"t":"snapshot","sweep":"fuzz-sweep","shards":[` +
		`{"id":0,"indexes":[0,1],"state":"pending"},` +
		`{"id":1,"indexes":[2,3],"state":"pending","requires":["bigmem"]},` +
		`{"id":2,"indexes":[4,5],"state":"done"}]}`
	seeds := []string{
		// The happy path: grant, renew, retire, finish.
		snapshot + "\n" +
			`{"t":"lease","shard":0,"worker":"w1","expires":"2026-07-29T00:00:00Z","leases":1}` + "\n" +
			`{"t":"renew","shard":0,"expires":"2026-07-29T00:01:00Z"}` + "\n" +
			`{"t":"retire","shard":0}` + "\n" +
			`{"t":"finish","state":"done"}` + "\n",
		// Admin lifecycle: quarantine, unquarantine, force-expire.
		snapshot + "\n" +
			`{"t":"quarantine","shard":1}` + "\n" +
			`{"t":"unquarantine","shard":1}` + "\n" +
			`{"t":"lease","shard":1,"worker":"w2","expires":"2026-07-29T00:00:00Z","leases":1}` + "\n" +
			`{"t":"expire","shard":1}` + "\n",
		// Resurrection attempts a real coordinator never journals: every
		// line after the retire must be rejected, not applied.
		snapshot + "\n" +
			`{"t":"retire","shard":0}` + "\n" +
			`{"t":"lease","shard":0,"worker":"evil","expires":"2026-07-29T00:00:00Z","leases":9}` + "\n" +
			`{"t":"expire","shard":0}` + "\n" +
			`{"t":"quarantine","shard":2}` + "\n",
		// Torn tail, interleaved garbage, out-of-range shard ids.
		snapshot + "\n" +
			"not json at all\n" +
			`{"t":"lease","shard":99,"worker":"w"}` + "\n" +
			`{"t":"retire","shard":1}` + "\n" +
			`{"t":"renew","shard":0,"expi`,
		// An older build's journal: an owner URL in the snapshot and an
		// adopt hand-off line, both accepted and ignored — the shard
		// table must not move.
		`{"t":"snapshot","sweep":"fuzz-sweep","owner":"http://a:1","shards":[` +
			`{"id":0,"indexes":[0,1],"state":"pending"},` +
			`{"id":1,"indexes":[2,3],"state":"done"}]}` + "\n" +
			`{"t":"lease","shard":0,"worker":"w1","expires":"2026-07-29T00:00:00Z","leases":1}` + "\n" +
			`{"t":"adopt","sweep":"fuzz-sweep","owner":"http://b:2"}` + "\n" +
			`{"t":"lease","shard":1,"worker":"evil","expires":"2026-07-29T00:00:00Z","leases":9}` + "\n",
		// No snapshot at all; deltas against an empty table.
		`{"t":"retire","shard":0}` + "\n" + `{"t":"finish"}` + "\n",
		"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "coord.journal.ndjson")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := replayJournal(path)
		if err != nil {
			t.Fatalf("replayJournal on an existing file: %v", err)
		}
		if st == nil {
			t.Fatal("nil replay state without error")
		}

		// Independent model of the resurrection rule: walk the same
		// lines, tracking which shards are done as of the last valid
		// snapshot plus subsequent retires. Nothing else may undo them.
		done := map[int]bool{}
		tableLen := 0
		_, serr := sweep.ScanNDJSON(path, maxJournalLineBytes, func(line []byte, torn bool) bool {
			var e journalEntry
			if json.Unmarshal(line, &e) != nil {
				return false
			}
			switch e.T {
			case entrySnapshot:
				for i, snap := range e.Shards {
					if snap.ID != i {
						return false // apply rejects unordered snapshots
					}
				}
				tableLen = len(e.Shards)
				done = map[int]bool{}
				for i, snap := range e.Shards {
					if snap.State == shardStateDone {
						done[i] = true
					}
				}
			case entryRetire:
				if e.Shard >= 0 && e.Shard < tableLen {
					done[e.Shard] = true
				}
			}
			return true
		})
		if serr != nil {
			t.Fatalf("model scan: %v", serr)
		}
		if len(st.shards) != tableLen {
			t.Fatalf("replay holds %d shards, want the last snapshot's %d", len(st.shards), tableLen)
		}
		for id := range done {
			if got := st.shards[id].State; got != shardStateDone {
				t.Fatalf("retired shard %d resurrected as %q\njournal:\n%s", id, got, data)
			}
		}
		// Replayed states must be names a snapshot could round-trip.
		for _, sh := range st.shards {
			if _, ok := shardStateFromName(sh.State); !ok {
				t.Fatalf("shard %d replayed into unknown state %q", sh.ID, sh.State)
			}
		}
	})
}

// TestReplayRejectsResurrection pins the hardening the fuzz target
// searches around: every post-retire transition a corrupted journal
// could contain counts as corrupt and leaves the shard done.
func TestReplayRejectsResurrection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.ndjson")
	lines := strings.Join([]string{
		`{"t":"snapshot","sweep":"run-x","shards":[{"id":0,"indexes":[0,1],"state":"pending"}]}`,
		`{"t":"retire","shard":0}`,
		`{"t":"lease","shard":0,"worker":"evil","expires":"2026-07-29T00:00:00Z","leases":1}`,
		`{"t":"renew","shard":0,"expires":"2026-07-29T00:00:00Z"}`,
		`{"t":"expire","shard":0}`,
		`{"t":"quarantine","shard":0}`,
		`{"t":"unquarantine","shard":0}`,
	}, "\n") + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := replayJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.shards[0].State != shardStateDone {
		t.Fatalf("shard 0 = %q, want done despite 5 resurrection lines", st.shards[0].State)
	}
	if st.corrupt != 5 {
		t.Errorf("corrupt = %d, want the 5 impossible transitions counted", st.corrupt)
	}
	if st.entries != 2 {
		t.Errorf("entries = %d, want only snapshot+retire applied", st.entries)
	}
}
