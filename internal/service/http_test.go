package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
)

func testServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(NewHandler(NewEngine(cfg)))
	t.Cleanup(srv.Close)
	return srv
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func getJSON(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestHTTPRunCacheHit(t *testing.T) {
	var calls atomic.Int64
	srv := testServer(t, Config{Workers: 2, Run: countingRunner(&calls)})
	body := `{"bench":"SYRK","sched":"CIAO-C","options":{"instr_per_warp":400}}`

	resp1, payload1 := postJSON(t, srv.URL+"/run", body)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("first POST /run: %d %s", resp1.StatusCode, payload1)
	}
	if got := resp1.Header.Get("X-Cache"); got != string(SourceComputed) {
		t.Errorf("first X-Cache = %q, want computed", got)
	}

	resp2, payload2 := postJSON(t, srv.URL+"/run", body)
	if got := resp2.Header.Get("X-Cache"); got != string(SourceCache) {
		t.Errorf("second X-Cache = %q, want cache", got)
	}
	if !bytes.Equal(payload1, payload2) {
		t.Error("cache hit served different bytes")
	}
	if calls.Load() != 1 {
		t.Errorf("simulations = %d, want 1", calls.Load())
	}
}

func TestHTTPConcurrentRunsSimulateOnce(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	srv := testServer(t, Config{Workers: 8, Run: func(s Spec) ([]byte, error) {
		calls.Add(1)
		<-release
		return []byte(`{"ok":true}`), nil
	}})
	body := `{"bench":"KMN","sched":"GTO"}`

	const clients = 8
	payloads := make([][]byte, clients)
	var started, done sync.WaitGroup
	for i := 0; i < clients; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			resp, payload := postJSON(t, srv.URL+"/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d", i, resp.StatusCode)
			}
			payloads[i] = payload
		}(i)
	}
	started.Wait()
	time.Sleep(10 * time.Millisecond) // let requests reach the engine
	close(release)
	done.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("simulations = %d, want 1 for %d identical concurrent requests", n, clients)
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(payloads[0], payloads[i]) {
			t.Fatalf("client %d received different bytes", i)
		}
	}
}

func TestHTTPExperimentJobLifecycle(t *testing.T) {
	var calls atomic.Int64
	srv := testServer(t, Config{Workers: 2, Run: countingRunner(&calls)})

	resp, body := postJSON(t, srv.URL+"/experiment", `{"experiment":"fig8"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /experiment: %d %s", resp.StatusCode, body)
	}
	var st JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" {
		t.Fatal("no job id")
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body = getJSON(t, srv.URL+"/jobs/"+st.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /jobs: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		if st.State != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.State != JobDone || len(st.Result) == 0 {
		t.Fatalf("job state %q, result %q", st.State, st.Result)
	}

	// Resubmitting the same experiment must be served from cache.
	resp, body = postJSON(t, srv.URL+"/experiment", `{"experiment":"fig8"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("resubmit: %d %s", resp.StatusCode, body)
	}
	var st2 JobStatus
	if err := json.Unmarshal(body, &st2); err != nil {
		t.Fatal(err)
	}
	for st2.State == JobRunning {
		_, body = getJSON(t, srv.URL+"/jobs/"+st2.ID)
		if err := json.Unmarshal(body, &st2); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	if st2.Source != SourceCache {
		t.Errorf("resubmit source = %q, want cache", st2.Source)
	}
	if calls.Load() != 129 {
		t.Errorf("simulations = %d, want 129 (one per distinct fig8 simulation)", calls.Load())
	}
}

func TestHTTPBadRequests(t *testing.T) {
	srv := testServer(t, Config{Run: func(Spec) ([]byte, error) { return []byte(`{}`), nil }})
	cases := []struct {
		path, body string
	}{
		{"/run", `{"bench":"NOPE","sched":"GTO"}`},
		{"/run", `{"experiment":"fig8"}`}, // figures go to /experiment
		{"/run", `not json`},
		{"/run", `{"unknown_field":1}`},
		// A warp count this large would exhaust memory building the
		// interference matrix.
		{"/run", `{"bench":"SYRK","sched":"GTO","config":{"warps_per_sm":1048576}}`},
		{"/experiment", `{"experiment":"fig99"}`},
	}
	for _, c := range cases {
		resp, body := postJSON(t, srv.URL+c.path, c.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: status %d %s, want 400", c.path, c.body, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("POST %s %q: body %q is not an error object", c.path, c.body, body)
		}
	}

	resp, _ := getJSON(t, srv.URL+"/jobs/job-nope")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", resp.StatusCode)
	}
}

func TestHTTPHealthz(t *testing.T) {
	var calls atomic.Int64
	srv := testServer(t, Config{Run: countingRunner(&calls)})
	postJSON(t, srv.URL+"/run", `{"bench":"SYRK","sched":"GTO"}`)
	postJSON(t, srv.URL+"/run", `{"bench":"SYRK","sched":"GTO"}`)

	resp, body := getJSON(t, srv.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Metrics struct {
			Cache struct {
				Hits   uint64 `json:"hits"`
				Misses uint64 `json:"misses"`
			} `json:"cache"`
			CacheEntries  int    `json:"cache_entries"`
			Simulations   uint64 `json:"simulations"`
			JobsSubmitted uint64 `json:"jobs_submitted"`
		} `json:"metrics"`
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	m := h.Metrics
	if h.Status != "ok" || m.Simulations != 1 || m.Cache.Hits != 1 || m.CacheEntries != 1 {
		t.Errorf("healthz = %s", body)
	}
	if len(h.Experiments) == 0 {
		t.Error("healthz lists no experiments")
	}

	// /metrics serves the same snapshot standalone.
	mresp, mbody := getJSON(t, srv.URL+"/metrics")
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", mresp.StatusCode)
	}
	var ms MetricsSnapshot
	if err := json.Unmarshal(mbody, &ms); err != nil {
		t.Fatal(err)
	}
	if ms.Simulations != 1 || ms.CacheEntries != 1 {
		t.Errorf("metrics = %s", mbody)
	}
}

// TestHTTPExperimentTable: the HTTP surface reads the experiment
// table. /healthz lists its names in table order, POST /experiment
// serves an entry that only ciaosim's text used to print, and a figure
// still refuses a machine override.
func TestHTTPExperimentTable(t *testing.T) {
	srv := testServer(t, Config{Workers: 1})

	_, body := getJSON(t, srv.URL+"/healthz")
	var h struct {
		Experiments []string `json:"experiments"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if want := harness.ExperimentNames(); !slices.Equal(h.Experiments, want) {
		t.Errorf("healthz experiments = %v, want %v", h.Experiments, want)
	}

	resp, body := postJSON(t, srv.URL+"/experiment", `{"experiment":"table1"}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /experiment table1: %d %s", resp.StatusCode, body)
	}
	var job JobStatus
	if err := json.Unmarshal(body, &job); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for job.State == JobRunning {
		if time.Now().After(deadline) {
			t.Fatal("table1 job never finished")
		}
		time.Sleep(time.Millisecond)
		_, body = getJSON(t, srv.URL+"/jobs/"+job.ID)
		if err := json.Unmarshal(body, &job); err != nil {
			t.Fatal(err)
		}
	}
	want, err := json.Marshal(harness.NewTable1())
	if err != nil {
		t.Fatal(err)
	}
	if job.State != JobDone || !bytes.Equal(job.Result, want) {
		t.Errorf("table1 job = %s %q, result %s, want %s", job.State, job.Error, job.Result, want)
	}

	resp, body = postJSON(t, srv.URL+"/experiment", `{"experiment":"fig8","config":{"l1_size_kb":32}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("fig8 with a config: %d %s, want 400", resp.StatusCode, body)
	}
}

// TestHTTPRealRunEndToEnd drives one short real simulation through the
// full HTTP stack and checks the cached replay is byte-identical.
func TestHTTPRealRunEndToEnd(t *testing.T) {
	srv := testServer(t, Config{Workers: 2, CacheEntries: 8})
	body := `{"bench":"SYRK","sched":"GTO","options":{"instr_per_warp":300}}`

	resp, first := postJSON(t, srv.URL+"/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("real run failed: %d %s", resp.StatusCode, first)
	}
	var cell map[string]any
	if err := json.Unmarshal(first, &cell); err != nil {
		t.Fatalf("payload is not JSON: %v", err)
	}
	if cell["bench"] != "SYRK" {
		t.Errorf("bench = %v", cell["bench"])
	}
	resp, second := postJSON(t, srv.URL+"/run", body)
	if got := resp.Header.Get("X-Cache"); got != string(SourceCache) {
		t.Errorf("X-Cache = %q, want cache", got)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached replay differs from computed result")
	}
}
