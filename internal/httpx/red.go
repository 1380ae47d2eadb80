package httpx

import (
	"net/http"
	"strings"
	"time"

	"repro/internal/metrics"
)

// RouteClasses is the closed set of labels the RED middleware tags
// requests with. A bounded label set keeps metric cardinality fixed no
// matter what paths clients probe.
var RouteClasses = []string{
	"/run",
	"/experiment",
	"/jobs",
	"/sweeps",
	"probe",
	"other",
}

// RouteClass buckets a request path into one of RouteClasses.
func RouteClass(path string) string {
	switch {
	case path == "/run":
		return "/run"
	case path == "/experiment":
		return "/experiment"
	case path == "/jobs" || strings.HasPrefix(path, "/jobs/"):
		return "/jobs"
	case path == "/sweeps" || strings.HasPrefix(path, "/sweeps/"):
		return "/sweeps"
	case path == "/metrics" || path == "/healthz":
		return "probe"
	default:
		return "other"
	}
}

// WantsProm reports whether a /metrics request asked for Prometheus
// text exposition instead of the default JSON: ?format=prom (explicit)
// or an Accept header naming text/plain (how Prometheus scrapes).
// ?format=json forces JSON regardless of Accept.
func WantsProm(r *http.Request) bool {
	switch r.URL.Query().Get("format") {
	case "prom", "prometheus":
		return true
	case "json":
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "text/plain")
}

// Recorder wraps a ResponseWriter to capture the status code and the
// bytes written, forwarding streaming flushes (the sweep results
// endpoint tails a file through it).
type Recorder struct {
	http.ResponseWriter
	Code  int
	Bytes int64
}

// NewRecorder wraps w; the status defaults to 200 like net/http.
func NewRecorder(w http.ResponseWriter) *Recorder {
	return &Recorder{ResponseWriter: w, Code: http.StatusOK}
}

// WriteHeader records the status code.
func (r *Recorder) WriteHeader(code int) {
	r.Code = code
	r.ResponseWriter.WriteHeader(code)
}

// Write counts response bytes.
func (r *Recorder) Write(b []byte) (int, error) {
	n, err := r.ResponseWriter.Write(b)
	r.Bytes += int64(n)
	return n, err
}

// Flush forwards streaming flushes.
func (r *Recorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Instrument wraps next so every request is timed, classified into a
// route class, and observed into the RED registry (status >= 500
// counts as an error; response bytes accumulate per route). logf, when
// non-nil, sees every request after it completes — the access log.
// Series for every route class are resolved up front, so the request
// path does one read from an immutable map plus the atomic adds of
// Series.Observe.
func Instrument(red *metrics.RED, logf func(r *http.Request, code int, bytes int64, d time.Duration), next http.Handler) http.Handler {
	series := make(map[string]*metrics.Series, len(RouteClasses))
	for _, c := range RouteClasses {
		series[c] = red.Series(c)
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := NewRecorder(w)
		next.ServeHTTP(rec, r)
		d := time.Since(start)
		s := series[RouteClass(r.URL.Path)]
		s.Observe(d, rec.Code >= 500)
		s.AddBytes(rec.Bytes)
		if logf != nil {
			logf(r, rec.Code, rec.Bytes, d)
		}
	})
}
