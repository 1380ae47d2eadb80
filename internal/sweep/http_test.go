package sweep

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const sweepBody = `{
	"name": "http",
	"axes": {
		"schedulers": ["GTO", "CCWS"],
		"benchmarks": ["SYRK", "ATAX"],
		"configs": [{"name": "base"}, {"name": "l1-32k", "l1_size_kb": 32}]
	},
	"options": {"instr_per_warp": 100}
}`

func postSweep(t *testing.T, url, body string) Status {
	t.Helper()
	resp, err := http.Post(url+"/sweeps", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /sweeps: %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, url, id string) Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url + "/sweeps/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st Status
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State != StateRunning {
			return st
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("sweep did not finish")
	return Status{}
}

func TestSweepHTTPLifecycle(t *testing.T) {
	mgr := NewManager(fakeEngine(0), t.TempDir(), 0)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	st := postSweep(t, srv.URL, sweepBody)
	if st.ID == "" || st.Total != 8 {
		t.Fatalf("status = %+v", st)
	}
	final := waitDone(t, srv.URL, st.ID)
	if final.State != StateDone || final.Done != 8 || final.Failed != 0 {
		t.Fatalf("final = %+v", final)
	}
	if final.GeoMeanIPC < 1.99 || final.GeoMeanIPC > 2.01 {
		t.Errorf("geomean = %f", final.GeoMeanIPC)
	}

	// The results endpoint streams one NDJSON record per cell.
	resp, err := http.Get(srv.URL + "/sweeps/" + st.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type = %q", ct)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var rec CellRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if rec.Status != StatusOK || rec.Key == "" {
			t.Errorf("record = %+v", rec)
		}
		lines++
	}
	if lines != 8 {
		t.Errorf("streamed %d records, want 8", lines)
	}

	// Listing and metrics reflect the run.
	lresp, err := http.Get(srv.URL + "/sweeps")
	if err != nil {
		t.Fatal(err)
	}
	var list []Status
	json.NewDecoder(lresp.Body).Decode(&list)
	lresp.Body.Close()
	if len(list) != 1 || list[0].ID != st.ID {
		t.Errorf("list = %+v", list)
	}
	m := mgr.MetricsSnapshot()
	if m["cells_done"] != uint64(8) || m["started"] != uint64(1) {
		t.Errorf("metrics = %v", m)
	}

	// Unknown IDs 404.
	nresp, err := http.Get(srv.URL + "/sweeps/nope")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown sweep: %d", nresp.StatusCode)
	}
}

func TestSweepHTTPCancel(t *testing.T) {
	// 20ms per cell × 42 cells, parallelism 1: the DELETE lands mid-run.
	mgr := NewManager(fakeEngine(20*time.Millisecond), t.TempDir(), 1)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	st := postSweep(t, srv.URL, `{"name":"cancel","axes":{"schedulers":["GTO","CCWS"],"classes":["LWS","SWS","CI"]}}`)
	if st.Total != 42 {
		t.Fatalf("total = %d, want 42", st.Total)
	}
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/"+st.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var got Status
	json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE: %d", resp.StatusCode)
	}
	if got.State != StateCancelled && got.State != StateDone {
		t.Errorf("state after cancel = %q", got.State)
	}
	if got.State == StateCancelled && got.Done == 42 {
		t.Error("cancelled sweep claims full completion")
	}
}

func TestSweepHTTPRepostResumes(t *testing.T) {
	dir := t.TempDir()
	mgr := NewManager(fakeEngine(10*time.Millisecond), dir, 1)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	body := `{"name":"repost","axes":{"schedulers":["GTO","CCWS"],"benchmarks":["SYRK","ATAX","BICG","KMN"]}}`
	st := postSweep(t, srv.URL, body)

	// While running, an identical POST is idempotent.
	again := postSweep(t, srv.URL, body)
	if again.ID != st.ID {
		t.Errorf("concurrent identical POST started %q, want the running %q", again.ID, st.ID)
	}

	// Cancel mid-run, then re-POST: the new run must resume the same
	// store and only execute the remainder.
	req, _ := http.NewRequest(http.MethodDelete, srv.URL+"/sweeps/"+st.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	cancelled := waitDone(t, srv.URL, st.ID)

	re := postSweep(t, srv.URL, body)
	if re.ID == st.ID {
		t.Fatal("re-POST after cancel returned the dead run")
	}
	if re.Dir != cancelled.Dir {
		t.Errorf("re-POST dir = %q, want the original store %q", re.Dir, cancelled.Dir)
	}
	final := waitDone(t, srv.URL, re.ID)
	if final.State != StateDone || final.Done != 8 {
		t.Fatalf("resumed run = %+v", final)
	}
	if cancelled.State == StateCancelled && final.Skipped != cancelled.Done {
		t.Errorf("resumed run skipped %d cells, want the %d already done", final.Skipped, cancelled.Done)
	}
}

// TestSweepHTTPOlderSpecRunsInProcess: a spec written for the retired
// multi-host runner still decodes strictly, runs in-process to done, and
// shares its store directory with the same grid without those fields.
func TestSweepHTTPOlderSpecRunsInProcess(t *testing.T) {
	mgr := NewManager(fakeEngine(0), t.TempDir(), 0)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()

	older := `{
		"name": "older",
		"distributed": true,
		"requires": ["fleet"],
		"axes": {
			"schedulers": ["GTO"],
			"benchmarks": ["SYRK", "ATAX"],
			"configs": [{"name": "base"}, {"name": "big", "requires": ["bigmem"], "l1_size_kb": 32}]
		}
	}`
	st := postSweep(t, srv.URL, older)
	final := waitDone(t, srv.URL, st.ID)
	if final.State != StateDone || final.Done != 4 || final.Failed != 0 {
		t.Fatalf("older spec run = %+v", final)
	}

	stripped := `{
		"name": "older",
		"axes": {
			"schedulers": ["GTO"],
			"benchmarks": ["SYRK", "ATAX"],
			"configs": [{"name": "base"}, {"name": "big", "l1_size_kb": 32}]
		}
	}`
	re := postSweep(t, srv.URL, stripped)
	if re.Dir != st.Dir {
		t.Errorf("stripped spec dir = %q, want the older spec's %q", re.Dir, st.Dir)
	}
	if again := waitDone(t, srv.URL, re.ID); again.Skipped != 4 {
		t.Errorf("stripped spec re-ran cells: %+v", again)
	}
}

func TestSweepHTTPBadSpec(t *testing.T) {
	mgr := NewManager(fakeEngine(0), t.TempDir(), 0)
	srv := httptest.NewServer(mgr.Handler())
	defer srv.Close()
	for _, body := range []string{
		`{`,
		`{"name":"x","axes":{"schedulers":["nope"]}}`,
		`{"name":"x","unknown_field":1}`,
		`{"name":"x","axes":{"schedulers":["GTO"],"benchmarks":["SYRK"]},"search":{"axes":[{"param":"mshr_entries","min":8,"max":64,"pow2":true}]}}`,
	} {
		resp, err := http.Post(srv.URL+"/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
}
