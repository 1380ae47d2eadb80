package sweep

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
)

// gatedEngine fabricates results instantly except for one cell, which
// blocks until the returned release function is called — the standard
// way these tests pin a sweep (and its store) open.
func gatedEngine(bench, sched string) (*service.Engine, func()) {
	gate := make(chan struct{})
	eng := service.NewEngine(service.Config{
		Workers: 4,
		Run: func(spec service.Spec) ([]byte, error) {
			if spec.Bench == bench && spec.Sched == sched {
				<-gate
			}
			return json.Marshal(harness.CellResult{Bench: spec.Bench, Sched: spec.Sched, IPC: 2})
		},
	})
	return eng, func() { close(gate) }
}

// TestStreamResultsFollowEndsCleanly: the default (follow) stream
// delivers every record and then terminates — a clean EOF when the
// sweep finishes, not an idle hang.
func TestStreamResultsFollowEndsCleanly(t *testing.T) {
	mgr := NewManager(fakeEngine(2*time.Millisecond), t.TempDir(), 1)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	st := postSweep(t, srv.URL, `{"name":"follow","axes":{"schedulers":["GTO","CCWS"],"benchmarks":["SYRK","ATAX"]}}`)
	// Attach while the sweep is (likely) still running; the stream must
	// replay what it missed, follow the rest, and end by itself.
	done := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/sweeps/" + st.ID + "/results")
		if err != nil {
			done <- -1
			return
		}
		defer resp.Body.Close()
		lines := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var rec CellRecord
			if err := json.Unmarshal(sc.Bytes(), &rec); err != nil || rec.Key == "" {
				done <- -1
				return
			}
			lines++
		}
		done <- lines
	}()
	waitDone(t, srv.URL, st.ID)
	select {
	case lines := <-done:
		if lines != 4 {
			t.Fatalf("followed stream delivered %d records, want 4", lines)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("followed stream never reached EOF after the sweep finished")
	}
}

// TestStreamResultsDisconnectDropsSubscriber: a follower that goes
// away is noticed via its request context and its handler returns
// promptly — not when the next append wakes it.
func TestStreamResultsDisconnectDropsSubscriber(t *testing.T) {
	eng, release := gatedEngine("ATAX", "GTO")
	mgr := NewManager(eng, t.TempDir(), 0)
	h := mgr.Handler()
	returned := make(chan struct{}, 1)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(w, r)
		if strings.HasSuffix(r.URL.Path, "/results") {
			returned <- struct{}{}
		}
	}))
	defer srv.Close()

	st := postSweep(t, srv.URL, `{"name":"gone","axes":{"schedulers":["GTO"],"benchmarks":["SYRK","ATAX"]}}`)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/sweeps/"+st.ID+"/results", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	// The gated cell pins the sweep open, so only the client can end
	// this stream.
	select {
	case <-returned:
		t.Fatal("results handler returned while its client still followed")
	case <-time.After(50 * time.Millisecond):
	}

	cancel() // the client vanishes mid-follow
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("results handler still running after its client disconnected")
	}

	release()
	waitDone(t, srv.URL, st.ID)
}

// TestSweepHTTPCompactRouteIsGone: the store no longer compacts, so
// POST /sweeps/{id}/compact is an unknown route.
func TestSweepHTTPCompactRouteIsGone(t *testing.T) {
	mgr := NewManager(fakeEngine(0), t.TempDir(), 0)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	st := postSweep(t, srv.URL, sweepBody)
	waitDone(t, srv.URL, st.ID)
	resp, err := http.Post(srv.URL+"/sweeps/"+st.ID+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("POST /sweeps/{id}/compact = %d, want 404", resp.StatusCode)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestManagerSyncResultsReachesStores: SetSyncResults must reach the
// stores of both started and recovered sweeps — the wiring ciaoserve's
// -sync-results flag rides on.
func TestManagerSyncResultsReachesStores(t *testing.T) {
	for _, on := range []bool{false, true} {
		t.Run(fmt.Sprintf("sync=%v", on), func(t *testing.T) {
			base := t.TempDir()
			plain, _ := eightCells(t)
			partialSweep(t, base, plain, fakeEngine(0), nil)
			mgr := NewManager(fakeEngine(0), base, 0)
			mgr.SetSyncResults(on)
			if n, err := mgr.Recover(); n != 1 || err != nil {
				t.Fatalf("Recover = (%d, %v), want the interrupted sweep resumed", n, err)
			}
			recovered, ok := mgr.Get(resumeID(plain))
			if !ok {
				t.Fatal("recovered run not tracked")
			}
			other := plain
			other.Name = "started"
			started, err := mgr.Start(other)
			if err != nil {
				t.Fatal(err)
			}
			for what, run := range map[string]*Run{"recovered": recovered, "started": started} {
				finish(t, run)
				if run.store.fsync != on {
					t.Errorf("%s sweep's store fsyncs appends = %v, want %v", what, run.store.fsync, on)
				}
			}
		})
	}
}
