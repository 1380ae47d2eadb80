package coord

import (
	"bytes"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sweep"
)

// TestCoordinatorCrashRecovery is the acceptance criterion: a
// coordinator "killed" mid-sweep (dropped without finishing, store
// handle closed) and rebuilt from its journal finishes the sweep under
// the original id, honours the lease a surviving worker still holds,
// re-runs no cell that had a settled success before the crash, and
// leaves the pre-crash bytes of the results file untouched (settled
// per-cell results are byte-identical across the restart).
func TestCoordinatorCrashRecovery(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)

	// Long TTL before the crash, so the in-flight lease is
	// unambiguously alive when the restarted coordinator replays it.
	hub := NewHub(Config{ShardSize: 2, TTL: time.Minute})
	d, err := hub.Distribute("run-42", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)

	// w1 settles one shard (2 cells) before the crash.
	l1, ok := c.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease for w1")
	}
	if _, _, err := c.Complete("w1", l1.Shard, runLeasedShard(t, l1, cells)); err != nil {
		t.Fatal(err)
	}
	// w2 holds a lease it never finishes — in flight at the crash.
	l2, ok := c.Lease(wid("w2"))
	if !ok {
		t.Fatal("no lease for w2")
	}

	// "Crash": nothing completes, nothing cancels; the process is gone.
	store.Close()
	preBytes, err := os.ReadFile(filepath.Join(dir, sweep.ResultsFile))
	if err != nil {
		t.Fatal(err)
	}

	// Restart: fresh hub (short TTL so the dead w2's lease re-assigns
	// quickly once it stops heartbeating), reopened store, replay.
	st2, err := sweep.Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hub2 := NewHub(Config{ShardSize: 2, TTL: 300 * time.Millisecond})
	d2, id, err := hub2.Recover(spec, cells, st2, nil)
	if err != nil || d2 == nil {
		t.Fatalf("Recover = (%v, %q, %v)", d2, id, err)
	}
	if id != "run-42" {
		t.Fatalf("recovered id %q, want the original run-42", id)
	}
	c2 := d2.(*Coordinator)
	snap := c2.Snapshot()
	if snap.DoneShards != 1 || snap.LeasedShards != 1 || snap.PendingShards != 2 {
		t.Fatalf("recovered table = %+v, want 1 done / 1 leased / 2 pending", snap)
	}
	if snap.Done != 2 || snap.Skipped != 2 || snap.Failed != 0 {
		t.Fatalf("recovered progress = %+v, want 2 done (skipped)", snap.Progress)
	}

	// The surviving worker's lease id still answers heartbeats.
	if !c2.Heartbeat(wid("w2"), l2.Shard) {
		t.Fatal("surviving worker's lease did not survive the restart")
	}
	cs := hub2.counters.Snapshot()
	if cs.SweepsRecovered != 1 || cs.JournalReplayed == 0 {
		t.Fatalf("recovery counters = %+v, want 1 sweep recovered from replayed entries", cs)
	}
	if cs.LeasesRecovered == 0 {
		t.Error("w2's live lease not counted as recovered")
	}

	// A fresh worker finishes everything w2 abandons (its heartbeats
	// stop now, so its lease expires and the shard re-assigns).
	srv := httptest.NewServer(hub2.Handler())
	defer srv.Close()
	eng := fakeEngine()
	defer startWorker(t, srv.URL, "w3", eng, 20*time.Millisecond)()
	waitDone(t, d2)
	final := d2.Progress()
	if final.State != sweep.StateDone || final.Done != 8 || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}

	// No settled cell re-ran: the post-restart engine simulated exactly
	// the 6 cells that had no stored success at the crash.
	if n := eng.Simulations(); n != 6 {
		t.Errorf("post-restart engine ran %d cells, want 6 (settled successes must not re-run)", n)
	}
	// Byte-identical: the pre-crash records survive as an untouched
	// prefix of the results file.
	post, err := os.ReadFile(filepath.Join(dir, sweep.ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(post, preBytes) {
		t.Error("recovery rewrote pre-crash results (prefix mismatch)")
	}
	perKey := okRecordsPerKey(t, dir)
	if len(perKey) != 8 {
		t.Fatalf("ok records for %d cells, want 8", len(perKey))
	}
	for k, n := range perKey {
		if n != 1 {
			t.Errorf("cell %s has %d ok records after recovery, want exactly 1", k, n)
		}
	}
}

// TestRecoverNothingToDo: directories without a journal, and journals
// of finished sweeps, recover to nothing.
func TestRecoverNothingToDo(t *testing.T) {
	spec, cells := eightCellSpec(t)

	// No journal at all.
	store, _ := newStore(t, spec, cells)
	hub := NewHub(Config{})
	if d, id, err := hub.Recover(spec, cells, store, nil); d != nil || id != "" || err != nil {
		t.Fatalf("Recover without a journal = (%v, %q, %v), want nothing", d, id, err)
	}
	store.Close()

	// A finished sweep's journal.
	store2, dir2 := newStore(t, spec, cells)
	d, err := hub.Distribute("run-1", spec, cells, store2, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Cancel() // terminal: the journal records finish
	waitDone(t, d)
	store2.Close()
	st, err := sweep.Open(dir2, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if d2, id, err := hub.Recover(spec, cells, st, nil); d2 != nil || err != nil {
		t.Fatalf("Recover of a finished sweep = (%v, %q, %v), want nothing", d2, id, err)
	}
}

// TestNeedsRecovery: one server owns a -sweepdir, so at boot every
// unfinished journal in it needs recovery — including one an older
// build wrote with an owner URL in its snapshot and an adopt hand-off
// line at its end, which then recovers with its live lease intact.
// Finished and missing journals need nothing.
func TestNeedsRecovery(t *testing.T) {
	spec, cells := eightCellSpec(t)
	expires := time.Now().Add(time.Hour).UTC().Format(time.RFC3339Nano)
	olderBuild := strings.Join([]string{
		`{"t":"snapshot","sweep":"run-old","owner":"http://old-a:1","shards":[` +
			`{"id":0,"indexes":[0,1,2,3],"state":"pending"},` +
			`{"id":1,"indexes":[4,5,6,7],"state":"pending"}]}`,
		`{"t":"lease","shard":0,"worker":"w1","expires":"` + expires + `","leases":1}`,
		`{"t":"adopt","sweep":"run-old","owner":"http://old-b:2"}`,
	}, "\n") + "\n"

	for _, tc := range []struct {
		name    string
		journal func(t *testing.T, store *sweep.Store) // nil: no journal
		want    bool
	}{
		{"unfinished journal with owner and adopt lines", func(t *testing.T, store *sweep.Store) {
			if err := os.WriteFile(store.CoordJournalPath(), []byte(olderBuild), 0o644); err != nil {
				t.Fatal(err)
			}
		}, true},
		{"finished journal", func(t *testing.T, store *sweep.Store) {
			c := NewCoordinator("run-done", spec, cells, store, Config{ShardSize: 4}, nil, nil, nil)
			c.Cancel()
			waitDone(t, c)
		}, false},
		{"no journal", nil, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, dir := newStore(t, spec, cells)
			if tc.journal != nil {
				tc.journal(t, store)
			}
			store.Close()
			need, err := NewHub(Config{}).NeedsRecovery(dir)
			if err != nil || need != tc.want {
				t.Fatalf("NeedsRecovery = (%v, %v), want %v", need, err, tc.want)
			}
			if !need {
				return
			}

			st, err := replayJournal(store.CoordJournalPath())
			if err != nil || st.corrupt != 0 || st.entries != 3 {
				t.Fatalf("replay = (%+v, %v), want all 3 lines applied and 0 corrupt", st, err)
			}
			reopened, err := sweep.Open(dir, spec)
			if err != nil {
				t.Fatal(err)
			}
			defer reopened.Close()
			hub := NewHub(Config{})
			d, id, err := hub.Recover(spec, cells, reopened, nil)
			if err != nil || d == nil || id != "run-old" {
				t.Fatalf("Recover = (%v, %q, %v), want the sweep under its original id", d, id, err)
			}
			defer d.Cancel()
			c := d.(*Coordinator)
			if got := hub.MetricsSnapshot().LeasesRecovered; got != 1 {
				t.Errorf("leases_recovered = %d, want 1", got)
			}
			if !c.Heartbeat(wid("w1"), 0) {
				t.Error("the surviving worker's lease on shard 0 was not restored")
			}
		})
	}
}

// TestRecoveryReopensDoneShardWithLostResults: a power failure can
// persist the journal's retire line while losing the shard's unsynced
// result lines. Recovery must not trust the journaled "done" — a
// retired shard with unsettled cells re-opens so the lost cells
// re-lease, instead of the sweep finishing without them.
func TestRecoveryReopensDoneShardWithLostResults(t *testing.T) {
	spec, cells := eightCellSpec(t)
	store, dir := newStore(t, spec, cells)
	hub := NewHub(Config{ShardSize: 4, TTL: time.Minute})
	d, err := hub.Distribute("run-1", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := d.(*Coordinator)
	l, ok := c.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease")
	}
	if _, _, err := c.Complete("w1", l.Shard, runLeasedShard(t, l, cells)); err != nil {
		t.Fatal(err)
	}
	store.Close()
	// The power failure: the journal survived, the results did not.
	if err := os.Truncate(filepath.Join(dir, sweep.ResultsFile), 0); err != nil {
		t.Fatal(err)
	}

	st2, err := sweep.Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	hub2 := NewHub(Config{ShardSize: 4, TTL: time.Minute})
	d2, _, err := hub2.Recover(spec, cells, st2, nil)
	if err != nil || d2 == nil {
		t.Fatalf("Recover = (%v, %v)", d2, err)
	}
	defer d2.Cancel()
	snap := d2.(*Coordinator).Snapshot()
	if snap.DoneShards != 0 || snap.PendingShards != 2 || snap.Done != 0 {
		t.Fatalf("recovered table = %+v, want the lost shard re-opened (0 done / 2 pending)", snap)
	}
}

// TestManagerRecoverServesRecoveredSweep drives the ciaoserve boot
// path: a base directory holding a crashed distributed sweep, a fresh
// manager + hub, Manager.Recover, and a worker finishing the run —
// still served under its original id.
func TestManagerRecoverServesRecoveredSweep(t *testing.T) {
	spec, cells := eightCellSpec(t)
	base := t.TempDir()
	dir := filepath.Join(base, "sweep-crashed")
	store, err := sweep.Create(dir, "sweep-7-feedface", spec, len(cells))
	if err != nil {
		t.Fatal(err)
	}
	hub1 := NewHub(Config{ShardSize: 2, TTL: time.Minute})
	d1, err := hub1.Distribute("sweep-7-feedface", spec, cells, store, nil)
	if err != nil {
		t.Fatal(err)
	}
	c1 := d1.(*Coordinator)
	l, ok := c1.Lease(wid("w1"))
	if !ok {
		t.Fatal("no lease")
	}
	if _, _, err := c1.Complete("w1", l.Shard, runLeasedShard(t, l, cells)); err != nil {
		t.Fatal(err)
	}
	store.Close() // crash

	hub2 := NewHub(Config{ShardSize: 2, TTL: 400 * time.Millisecond})
	m := sweep.NewManager(fakeEngine(), base, 0)
	m.SetDistributor(hub2)
	n, err := m.Recover()
	if n != 1 || err != nil {
		t.Fatalf("Recover = (%d, %v), want 1 recovered sweep", n, err)
	}
	run, ok := m.Get("sweep-7-feedface")
	if !ok {
		t.Fatal("recovered run not served under its original id")
	}
	status := run.Status()
	if !status.Distributed || status.State != sweep.StateRunning {
		t.Fatalf("recovered status = %+v, want a running distributed sweep", status)
	}

	srv := httptest.NewServer(hub2.Handler())
	defer srv.Close()
	defer startWorker(t, srv.URL, "w9", fakeEngine(), 20*time.Millisecond)()
	select {
	case <-run.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("recovered sweep did not finish: %+v", run.Progress())
	}
	final := run.Progress()
	if final.State != sweep.StateDone || final.Done != 8 || final.Skipped != 2 || final.Failed != 0 {
		t.Fatalf("final = %+v, want 8 done with the 2 pre-crash cells skipped", final)
	}

	// A second scan finds nothing left: the finished journal opts out.
	if n, err := m.Recover(); n != 0 || err != nil {
		t.Fatalf("second Recover = (%d, %v), want nothing to do", n, err)
	}
}

// TestWorkerPollJitter: poll() spreads a fleet's lease retries across
// ±25% of the configured interval instead of a lockstep thundering
// herd.
func TestWorkerPollJitter(t *testing.T) {
	cfg := WorkerConfig{Poll: 400 * time.Millisecond}
	lo, hi := cfg.Poll, cfg.Poll
	for i := 0; i < 500; i++ {
		d := cfg.poll()
		if d < 300*time.Millisecond || d > 500*time.Millisecond {
			t.Fatalf("poll() = %v, want within ±25%% of 400ms", d)
		}
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if hi-lo < 50*time.Millisecond {
		t.Errorf("poll() spread = %v over 500 draws, want meaningful jitter", hi-lo)
	}
}
