package coord

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sweep"
)

// flakyCoordStub is a scripted coordinator: it grants one lease,
// answers every heartbeat stale (forcing the worker to abandon the
// shard), and fails the first failCompletes uploads with a 503 before
// accepting. It is the regression harness for the stale-abandonment
// upload path: a healthy-but-briefly-unavailable server must still
// receive the partial records.
type flakyCoordStub struct {
	t             *testing.T
	lease         Lease
	failCompletes int

	mu        sync.Mutex
	leased    bool
	completes int
	got       []sweep.CellRecord
}

func (s *flakyCoordStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /coord/lease", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.leased {
			writeJSON(w, http.StatusOK, leaseResponse{Status: statusIdle, RetryMS: 10})
			return
		}
		s.leased = true
		writeJSON(w, http.StatusOK, leaseResponse{
			Status:  statusShard,
			Sweep:   s.lease.Sweep,
			Shard:   s.lease.Shard,
			Indexes: s.lease.Indexes,
			Spec:    &s.lease.Spec,
			TTLMS:   s.lease.TTL.Milliseconds(),
		})
	})
	mux.HandleFunc("POST /coord/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusStale})
	})
	mux.HandleFunc("POST /coord/complete", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.completes++
		if s.completes <= s.failCompletes {
			httpError(w, http.StatusServiceUnavailable, context.DeadlineExceeded)
			return
		}
		var req completeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.t.Errorf("complete body: %v", err)
		}
		s.got = append(s.got, req.Records...)
		writeJSON(w, http.StatusOK, completeResponse{Status: statusOK, Merged: len(req.Records)})
	})
	return mux
}

// TestAbandonedShardUploadRetriesUntilServerRecovers is the
// regression test for the stale-lease abandonment path: RunWorker used
// to log and drop the partial upload after quick retries even when the
// server was healthy again moments later. The worker's shard goes
// stale mid-run (every heartbeat answers stale), the first two uploads
// 503, and the records must still land on the third attempt.
func TestAbandonedShardUploadRetriesUntilServerRecovers(t *testing.T) {
	spec := sweep.Spec{
		Name: "retry",
		Axes: sweep.Axes{Schedulers: []string{"GTO"}, Benchmarks: []string{"SYRK", "ATAX"}},
	}
	if _, err := spec.Expand(); err != nil {
		t.Fatal(err)
	}

	// SYRK returns instantly; ATAX holds the shard in flight long
	// enough for a heartbeat (every TTL/3 = 10ms) to come back stale
	// and mark the shard abandoned, then releases — so the upload
	// always travels the abandonment path, with both cells finished.
	gate := make(chan struct{})
	var gateOnce sync.Once
	engine := service.NewEngine(service.Config{
		Workers: 2,
		Run: func(s service.Spec) ([]byte, error) {
			if s.Bench == "ATAX" {
				gateOnce.Do(func() {
					go func() {
						time.Sleep(150 * time.Millisecond)
						close(gate)
					}()
				})
				<-gate
			}
			return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched, IPC: 2})
		},
	})

	// failCompletes exceeds the routine completeAttempts budget on
	// purpose: only the deeper abandonAttempts budget of the stale
	// path can get the records through, so a regression to the old
	// quick-drop behaviour fails loudly here.
	stub := &flakyCoordStub{
		t:             t,
		lease:         Lease{Sweep: "run-1", Shard: 0, Indexes: []int{0, 1}, Spec: spec, TTL: 30 * time.Millisecond},
		failCompletes: completeAttempts + 1,
	}
	srv := httptest.NewServer(stub.handler())
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := RunWorker(ctx, WorkerConfig{
		URL:      srv.URL,
		Name:     "w1",
		Engine:   engine,
		Poll:     10 * time.Millisecond,
		IdleExit: 200 * time.Millisecond,
		Logf:     t.Logf,
	})
	if err != nil {
		t.Fatalf("RunWorker = %v", err)
	}

	stub.mu.Lock()
	defer stub.mu.Unlock()
	if stub.completes < completeAttempts+2 {
		t.Fatalf("server saw %d complete attempts, want >= %d (more 503s than the routine budget, then success)",
			stub.completes, completeAttempts+2)
	}
	keys := map[string]bool{}
	for _, rec := range stub.got {
		keys[rec.Key] = true
	}
	if len(keys) != 2 {
		t.Fatalf("server received %d distinct cells, want both despite the abandonment (%d records)", len(keys), len(stub.got))
	}
}

// TestCompleteRetryBackoffGivesUpEventually: the retry budget is a
// budget — a server that never recovers ends in the original error,
// after exactly the configured number of attempts.
func TestCompleteRetryBackoffGivesUpEventually(t *testing.T) {
	var calls int
	var mu sync.Mutex
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		calls++
		mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, context.DeadlineExceeded)
	}))
	defer srv.Close()

	w := &worker{cfg: WorkerConfig{Logf: t.Logf}, name: "w1", base: srv.URL}
	err := w.complete(context.Background(), Lease{Sweep: "s", Shard: 0}, nil, 3)
	if err == nil {
		t.Fatal("complete against a dead server returned nil")
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 3 {
		t.Fatalf("server saw %d attempts, want exactly 3", calls)
	}
}

// TestCompleteRetryHonorsContext: cancellation mid-backoff returns
// promptly instead of sleeping out the remaining budget.
func TestCompleteRetryHonorsContext(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusServiceUnavailable, context.DeadlineExceeded)
	}))
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	w := &worker{cfg: WorkerConfig{}, name: "w1", base: srv.URL}
	start := time.Now()
	err := w.complete(ctx, Lease{Sweep: "s", Shard: 0}, nil, abandonAttempts)
	if err == nil {
		t.Fatal("cancelled complete returned nil")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled complete took %s, want prompt return", elapsed)
	}
}

// TestRunWorkerRejectsMalformedURL: a -worker value that is not one
// absolute http(s) URL fails before the first request. Accepted, such
// a value failed every poll, and -idle-exit mistook the failures for
// an idle coordinator and exited cleanly.
func TestRunWorkerRejectsMalformedURL(t *testing.T) {
	// A cancelled context makes an accepted URL return before it polls.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		url string
		ok  bool
	}{
		{"http://127.0.0.1:8080,http://127.0.0.1:8081", false},
		{"127.0.0.1:8080", false},
		{"", false},
		{"http://127.0.0.1:8080/", true},
	} {
		err := RunWorker(ctx, WorkerConfig{URL: tc.url, Engine: fakeEngine()})
		if tc.ok && !errors.Is(err, context.Canceled) {
			t.Errorf("RunWorker(%q) = %v, want the URL accepted (context.Canceled)", tc.url, err)
		}
		if !tc.ok && (err == nil || errors.Is(err, context.Canceled)) {
			t.Errorf("RunWorker(%q) = %v, want a URL error", tc.url, err)
		}
	}
}
