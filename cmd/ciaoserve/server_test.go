package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// testServer assembles a server around a blocking executor: every
// simulated run parks on release, so worker slots and the engine queue
// fill deterministically.
func testServer(t *testing.T, opts serverOpts) (*server, *httptest.Server, chan struct{}) {
	t.Helper()
	release := make(chan struct{})
	opts.sweepDir = t.TempDir()
	opts.run = func(service.Spec) ([]byte, error) {
		<-release
		return []byte(`{"ok":true}`), nil
	}
	opts.logf = func(*http.Request, int, int64, time.Duration) {}
	s := newServer(opts)
	ts := httptest.NewServer(s.handler)
	t.Cleanup(ts.Close)
	return s, ts, release
}

// runSpec builds a distinct /run body per n, so requests neither hit
// the cache nor coalesce with each other.
func runSpec(n int) string {
	return fmt.Sprintf(`{"bench":"SYRK","sched":"CIAO-C","options":{"instr_per_warp":%d}}`, 1000+n)
}

func postRun(ts *httptest.Server, n int) (*http.Response, error) {
	return http.Post(ts.URL+"/run", "application/json", strings.NewReader(runSpec(n)))
}

// TestServerShedsUnderLoad drives the server past its accept-queue
// bound and checks the overload contract: excess work is refused fast
// with 429 + Retry-After while the health and sweep-listing endpoints
// keep answering, and once the backlog drains the queued requests
// complete and new work is admitted again.
func TestServerShedsUnderLoad(t *testing.T) {
	s, ts, release := testServer(t, serverOpts{workers: 1, maxQueue: 2})

	// Fill the worker slot and the accept queue: request 0 executes
	// (blocked in the run func), request 1 queues for the engine slot.
	var wg sync.WaitGroup
	codes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			resp, err := postRun(ts, n)
			if err != nil {
				t.Errorf("request %d: %v", n, err)
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}(i)
	}
	waitFor(t, "engine queue to fill", func() bool { return s.engine.QueueDepth() >= 1 })

	// The third request must shed immediately, not join the pile.
	start := time.Now()
	resp, err := postRun(ts, 2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("shed response took %s, want fail-fast", el)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request code = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}

	// Saturation must not take down the cheap endpoints.
	for _, probe := range []struct {
		method, path, body string
	}{
		{"GET", "/healthz", ""},
		{"GET", "/sweeps", ""},
	} {
		start := time.Now()
		req, _ := http.NewRequest(probe.method, ts.URL+probe.path, strings.NewReader(probe.body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s under load: %v", probe.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if el := time.Since(start); el > 2*time.Second {
			t.Fatalf("%s under load took %s", probe.path, el)
		}
		if resp.StatusCode >= 500 {
			t.Fatalf("%s under load = %d", probe.path, resp.StatusCode)
		}
	}

	// Drain: the blocked and queued requests complete normally.
	close(release)
	wg.Wait()
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Fatalf("queued request code = %d, want 200", c)
		}
	}

	// And the server admits new work again.
	resp, err = postRun(ts, 3)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request code = %d, want 200", resp.StatusCode)
	}

	// The decisions all landed in the RED layer.
	snap := s.red.Series("/run").Snapshot()
	if snap.Shed != 1 {
		t.Fatalf("shed counter = %d, want 1", snap.Shed)
	}
	if snap.Requests < 4 {
		t.Fatalf("requests = %d, want >= 4", snap.Requests)
	}
}

// promFamilies is the ordered list of metric families a fresh server
// exposes after one /run: the /metrics contract. Adding, removing or
// reordering a family is a deliberate change to this list.
var promFamilies = []string{
	"ciao_cache_hits_total counter",
	"ciao_cache_misses_total counter",
	"ciao_cache_evictions_total counter",
	"ciao_cache_entries gauge",
	"ciao_simulations_total counter",
	"ciao_jobs_submitted_total counter",
	"ciao_engine_queue_depth gauge",
	"ciao_engine_running gauge",
	"ciao_http_requests_total counter",
	"ciao_http_request_errors_total counter",
	"ciao_http_requests_shed_total counter",
	"ciao_http_response_bytes_total counter",
	"ciao_http_request_seconds histogram",
	"ciao_sweeps_started_total counter",
	"ciao_sweep_cells_done_total counter",
	"ciao_sweep_cells_failed_total counter",
	"ciao_sweeps_active gauge",
	"ciao_sweeps_tracked gauge",
}

// TestServerMetricsFormats checks the /metrics content negotiation:
// JSON by default (with the per-route RED block), and Prometheus text
// exposition on request, carrying exactly the promFamilies list.
func TestServerMetricsFormats(t *testing.T) {
	_, ts, release := testServer(t, serverOpts{workers: 2})
	close(release)

	if resp, err := postRun(ts, 0); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var js struct {
		Cache json.RawMessage            `json:"cache"`
		HTTP  map[string]json.RawMessage `json:"http"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default Content-Type = %q", ct)
	}
	if js.Cache == nil || js.HTTP["/run"] == nil {
		t.Fatalf("JSON payload missing cache or http//run block: %+v", js)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("prom Content-Type = %q", ct)
	}
	var families []string
	for _, line := range strings.Split(string(body), "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			families = append(families, f)
		}
	}
	if !slices.Equal(families, promFamilies) {
		t.Errorf("prom families =\n%s\nwant\n%s", strings.Join(families, "\n"), strings.Join(promFamilies, "\n"))
	}
	for _, want := range []string{
		`ciao_http_requests_total{route="/run"} 1`,
		`ciao_http_request_seconds_bucket{route="/run",le="+Inf"} 1`,
		"ciao_cache_hits_total",
		"ciao_simulations_total",
		"ciao_engine_queue_depth",
		"ciao_sweeps_started_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prom exposition missing %q", want)
		}
	}

	// Accept-based negotiation reaches the same encoder.
	req, _ := http.NewRequest("GET", ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain;version=0.0.4")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "# TYPE ciao_http_request_seconds histogram") {
		t.Error("Accept: text/plain did not produce exposition format")
	}
}

// waitFor polls cond for up to five seconds.
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
