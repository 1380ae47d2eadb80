package sweep

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
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

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d", url, resp.StatusCode)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return data
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
// away is noticed via its request context and unsubscribed promptly —
// not discovered dead at the next append.
func TestStreamResultsDisconnectDropsSubscriber(t *testing.T) {
	eng, release := gatedEngine("ATAX", "GTO")
	mgr := NewManager(eng, t.TempDir(), 0)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	st := postSweep(t, srv.URL, `{"name":"gone","axes":{"schedulers":["GTO"],"benchmarks":["SYRK","ATAX"]}}`)
	run, ok := mgr.Get(st.ID)
	if !ok {
		t.Fatal("run not tracked")
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/sweeps/"+st.ID+"/results", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitFor(t, "follower subscribed", func() bool { return run.store.TailSubscribers() == 1 })

	cancel() // the client vanishes mid-follow
	waitFor(t, "subscriber dropped on disconnect", func() bool { return run.store.TailSubscribers() == 0 })

	release()
	waitDone(t, srv.URL, st.ID)
}

// TestStreamAndEndpointsAcrossCompaction: compacting a finished sweep
// through POST /sweeps/{id}/compact changes neither the snapshot nor
// the followed stream.
func TestStreamAndEndpointsAcrossCompaction(t *testing.T) {
	mgr := NewManager(fakeEngine(0), t.TempDir(), 0)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	st := postSweep(t, srv.URL, sweepBody)
	waitDone(t, srv.URL, st.ID)
	base := srv.URL + "/sweeps/" + st.ID
	before := getBody(t, base+"/results?follow=0")
	if len(before) == 0 {
		t.Fatal("empty snapshot before compaction")
	}

	resp, err := http.Post(base+"/compact", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		Compacted bool         `json:"compacted"`
		Segment   *SegmentInfo `json:"segment"`
	}
	err = json.NewDecoder(resp.Body).Decode(&cr)
	resp.Body.Close()
	if err != nil || !cr.Compacted || cr.Segment == nil {
		t.Fatalf("POST /compact = (%+v, %v)", cr, err)
	}
	if cr.Segment.Records != 8 {
		t.Fatalf("segment = %+v, want all 8 records frozen", cr.Segment)
	}

	if after := getBody(t, base+"/results?follow=0"); !bytes.Equal(after, before) {
		t.Error("snapshot changed across compaction")
	}
	// The followed stream of a finished sweep replays everything and
	// ends; its bytes must match the snapshot too.
	if followed := getBody(t, base+"/results"); !bytes.Equal(followed, before) {
		t.Error("followed stream diverged from the snapshot after compaction")
	}
	// An uncompressed segment is the verbatim stream prefix it froze.
	run, _ := mgr.Get(st.ID)
	if blob, err := run.store.backend.Get(cr.Segment.Name); err != nil || !bytes.Equal(blob, before) {
		t.Errorf("segment blob = (%d bytes, %v), want the %d stream bytes it froze", len(blob), err, len(before))
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

// TestSweepManagerAppliesStoreOptions: SetStoreOptions must reach the
// stores of newly started sweeps — the wiring ciaoserve's
// -compact-after flag rides on.
func TestSweepManagerAppliesStoreOptions(t *testing.T) {
	mgr := NewManager(fakeEngine(0), t.TempDir(), 0)
	mgr.SetStoreOptions(StoreOptions{CompactAfter: 4})
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	st := postSweep(t, srv.URL, sweepBody) // 8 cells → two auto-compactions
	waitDone(t, srv.URL, st.ID)
	run, ok := mgr.Get(st.ID)
	if !ok {
		t.Fatal("run not tracked")
	}
	if segs := run.store.Segments(); len(segs) != 2 {
		t.Fatalf("auto-compaction wrote %d segments, want 2 (8 cells / compact-after 4): %+v", len(segs), segs)
	}
	if snap := mgr.MetricsSnapshot(); snap["store"] == nil {
		t.Fatal("metrics snapshot lacks the store block")
	}
	if got := mgr.storeCounters.Snapshot(); got.Compactions != 2 || got.SegmentsWritten != 2 {
		t.Errorf("store counters = %+v, want 2 compactions", got)
	}
	// The streamed results still hold all 8 records.
	lines := strings.Count(string(getBody(t, srv.URL+"/sweeps/"+st.ID+"/results?follow=0")), "\n")
	if lines != 8 {
		t.Errorf("snapshot holds %d lines, want 8", lines)
	}
}
