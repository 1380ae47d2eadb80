package httpx

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestAdmissionBoundsAcceptQueue(t *testing.T) {
	red := metrics.NewRED()
	series := red.Series("/run")
	release := make(chan struct{})
	entered := make(chan struct{}, 16)
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		entered <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})
	a := NewAdmission(AdmissionConfig{MaxQueue: 2})
	h := a.Wrap(series, slow)

	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rr := httptest.NewRecorder()
			h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", nil))
			codes <- rr.Code
		}()
	}
	// Wait until both occupy the queue, then the third must shed fast.
	<-entered
	<-entered
	start := time.Now()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", nil))
	if el := time.Since(start); el > time.Second {
		t.Fatalf("shed took %s, want fail-fast", el)
	}
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("third request code = %d, want 429", rr.Code)
	}
	ra, err := strconv.Atoi(rr.Header().Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer", rr.Header().Get("Retry-After"))
	}
	if ra != 1 {
		t.Fatalf("Retry-After = %d, want 1", ra)
	}
	close(release)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("queued request code = %d, want 200", c)
		}
	}
	if snap := series.Snapshot(); snap.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", snap.Shed)
	}
	// The queue drained: a fresh request is admitted again.
	release2 := func() {} // handler no longer blocks (channel closed)
	_ = release2
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("post-drain request code = %d, want 200", rr.Code)
	}
}

func TestAdmissionShedsOnDepth(t *testing.T) {
	depth := 10
	a := NewAdmission(AdmissionConfig{MaxQueue: 4, Depth: func() int { return depth }})
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	h := a.Wrap(nil, ok)

	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", nil))
	if rr.Code != http.StatusTooManyRequests {
		t.Fatalf("code with depth 10 >= limit 4 = %d, want 429", rr.Code)
	}
	depth = 0
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("code with depth 0 = %d, want 200", rr.Code)
	}
}

func TestAdmissionZeroConfigAdmitsEverything(t *testing.T) {
	a := NewAdmission(AdmissionConfig{})
	ok := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { w.WriteHeader(200) })
	h := a.Wrap(nil, ok)
	for i := 0; i < 50; i++ {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", "/run", nil))
		if rr.Code != http.StatusOK {
			t.Fatalf("code = %d, want 200", rr.Code)
		}
	}
}
