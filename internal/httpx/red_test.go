package httpx

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestRouteClass(t *testing.T) {
	cases := map[string]string{
		"/run":                      "/run",
		"/experiment":               "/experiment",
		"/jobs/job-1-abc":           "/jobs",
		"/sweeps":                   "/sweeps",
		"/sweeps/sweep-1-x/results": "/sweeps",
		"/coord/lease":              "other",
		"/metrics":                  "probe",
		"/healthz":                  "probe",
		"/favicon.ico":              "other",
	}
	known := map[string]bool{}
	for _, c := range RouteClasses {
		known[c] = true
	}
	for path, want := range cases {
		got := RouteClass(path)
		if got != want {
			t.Errorf("RouteClass(%q) = %q, want %q", path, got, want)
		}
		if !known[got] {
			t.Errorf("RouteClass(%q) = %q, not in RouteClasses", path, got)
		}
	}
}

func TestInstrumentObservesAndLogs(t *testing.T) {
	red := metrics.NewRED()
	var logged int
	h := Instrument(red, func(r *http.Request, code int, bytes int64, d time.Duration) {
		logged++
		if code != http.StatusTeapot {
			t.Errorf("logged code = %d, want 418", code)
		}
		if bytes != 4 {
			t.Errorf("logged bytes = %d, want 4", bytes)
		}
	}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("body"))
	}))

	req := httptest.NewRequest("POST", "/run", nil)
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if logged != 1 {
		t.Fatalf("logf ran %d times, want 1", logged)
	}
	snap := red.Series("/run").Snapshot()
	if snap.Requests != 1 {
		t.Fatalf("requests = %d, want 1", snap.Requests)
	}
	if snap.Errors != 0 {
		t.Fatalf("418 counted as error")
	}
	if snap.Bytes != 4 {
		t.Fatalf("bytes = %d, want 4", snap.Bytes)
	}
}

func TestInstrumentCountsServerErrors(t *testing.T) {
	red := metrics.NewRED()
	h := Instrument(red, nil, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/sweeps", nil))
	snap := red.Series("/sweeps").Snapshot()
	if snap.Requests != 1 || snap.Errors != 1 {
		t.Fatalf("requests/errors = %d/%d, want 1/1", snap.Requests, snap.Errors)
	}
}

func TestWantsProm(t *testing.T) {
	mk := func(url, accept string) *http.Request {
		r := httptest.NewRequest("GET", url, nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		return r
	}
	if WantsProm(mk("/metrics", "")) {
		t.Fatal("bare request should default to JSON")
	}
	if !WantsProm(mk("/metrics?format=prom", "")) {
		t.Fatal("?format=prom should pick exposition format")
	}
	if !WantsProm(mk("/metrics", "text/plain;version=0.0.4")) {
		t.Fatal("Accept: text/plain should pick exposition format")
	}
	if WantsProm(mk("/metrics?format=json", "text/plain")) {
		t.Fatal("?format=json must override Accept")
	}
	if WantsProm(mk("/metrics", "application/json")) {
		t.Fatal("Accept: application/json should stay JSON")
	}
}

func TestRecorderCapturesStreaming(t *testing.T) {
	rr := httptest.NewRecorder()
	rec := NewRecorder(rr)
	if rec.Code != http.StatusOK {
		t.Fatalf("default code = %d", rec.Code)
	}
	rec.Write([]byte("abc"))
	rec.Flush() // must not panic; httptest.ResponseRecorder implements Flusher
	rec.Write([]byte("de"))
	if rec.Bytes != 5 {
		t.Fatalf("bytes = %d, want 5", rec.Bytes)
	}
	if got := rr.Body.String(); !strings.HasPrefix(got, "abcde") {
		t.Fatalf("body = %q", got)
	}
}
