package service

import (
	"fmt"
	"net/http"

	"repro/internal/harness"
	"repro/internal/httpx"
	"repro/internal/metrics"
)

// maxBodyBytes bounds request bodies; specs are tiny.
const maxBodyBytes = 1 << 20

// MetricsSnapshot is the /metrics payload.
type MetricsSnapshot struct {
	// Cache is the result cache's hit/miss/eviction counters.
	Cache any `json:"cache"`
	// CacheEntries is the live entry count.
	CacheEntries int `json:"cache_entries"`
	// Simulations counts actual executor runs (cache hits excluded).
	Simulations uint64 `json:"simulations"`
	// JobsSubmitted counts accepted async jobs.
	JobsSubmitted uint64 `json:"jobs_submitted"`
	// Extra carries additional subsystems keyed by name (e.g.
	// "sweeps": cells completed, failures).
	Extra map[string]any `json:"extra,omitempty"`
	// HTTP carries per-route RED snapshots (requests, errors, shed,
	// latency quantiles) when the server installed the RED middleware.
	HTTP map[string]metrics.SeriesSnapshot `json:"http,omitempty"`
}

// handlerConfig collects the observability hooks a HandlerOption can
// install: they are owned by layers the service package cannot import
// (the sweep manager sits above it) plus the RED registry the server's
// middleware feeds.
type handlerConfig struct {
	extra   func() map[string]any
	httpRED *metrics.RED
	prom    []func(*metrics.PromWriter)
}

// HandlerOption customises NewHandler.
type HandlerOption func(*handlerConfig)

// WithExtraMetrics folds fn's result into the JSON /metrics and
// /healthz payloads under "extra", keyed by subsystem.
func WithExtraMetrics(fn func() map[string]any) HandlerOption {
	return func(c *handlerConfig) { c.extra = fn }
}

// WithHTTPRED adds per-route RED snapshots to the JSON /metrics
// payload and ciao_http_* families to the Prometheus exposition.
func WithHTTPRED(red *metrics.RED) HandlerOption {
	return func(c *handlerConfig) { c.httpRED = red }
}

// WithProm appends subsystem hooks (the sweep manager) to the
// Prometheus exposition.
func WithProm(hooks ...func(*metrics.PromWriter)) HandlerOption {
	return func(c *handlerConfig) { c.prom = append(c.prom, hooks...) }
}

// NewHandler wires the engine into an http.Handler:
//
//	POST /run          — one bench × sched cell, synchronous
//	POST /experiment   — any experiment by name, asynchronous (202 + job id)
//	GET  /jobs/{id}    — job status; result inlined once done
//	GET  /metrics      — engine/cache counters (plus extra subsystems)
//	GET  /healthz      — liveness plus the same counters and the experiment names
//
// Responses are JSON; /run and finished jobs carry an X-Cache header
// (computed, cache, or coalesced) so clients and tests can observe
// cache effectiveness. GET /metrics answers JSON by default and
// Prometheus text exposition when the request asks for it
// (?format=prom or Accept: text/plain). Observability hooks are
// installed via With* options.
func NewHandler(e *Engine, options ...HandlerOption) http.Handler {
	var opts handlerConfig
	for _, o := range options {
		o(&opts)
	}
	snapshot := func() MetricsSnapshot {
		s := MetricsSnapshot{
			Cache:         e.Cache().Stats(),
			CacheEntries:  e.Cache().Len(),
			Simulations:   e.Simulations(),
			JobsSubmitted: e.JobsSubmitted(),
		}
		if opts.extra != nil {
			s.Extra = opts.extra()
		}
		if opts.httpRED != nil {
			s.HTTP = opts.httpRED.Snapshot()
		}
		return s
	}
	writeProm := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", metrics.PromContentType)
		p := metrics.NewPromWriter(w)
		e.WriteProm(p)
		if opts.httpRED != nil {
			opts.httpRED.WriteProm(p, "ciao_http", "route")
		}
		for _, hook := range opts.prom {
			hook(p)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", func(w http.ResponseWriter, r *http.Request) {
		spec, ok := decodeSpec(w, r)
		if !ok {
			return
		}
		if spec.Experiment == "" {
			spec.Experiment = ExpRun
		}
		if spec.Experiment != ExpRun {
			httpError(w, http.StatusBadRequest,
				fmt.Errorf("service: /run only accepts single cells; POST /experiment for %q", spec.Experiment))
			return
		}
		payload, source, err := e.Run(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", string(source))
		w.Write(payload)
	})

	mux.HandleFunc("POST /experiment", func(w http.ResponseWriter, r *http.Request) {
		spec, ok := decodeSpec(w, r)
		if !ok {
			return
		}
		job, err := e.Submit(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, job.Status())
	})

	mux.HandleFunc("GET /jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		job, ok := e.Job(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("service: unknown job %q", r.PathValue("id")))
			return
		}
		status := job.Status()
		if status.Source != "" {
			w.Header().Set("X-Cache", string(status.Source))
		}
		writeJSON(w, http.StatusOK, status)
	})

	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		if httpx.WantsProm(r) {
			writeProm(w)
			return
		}
		writeJSON(w, http.StatusOK, snapshot())
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, struct {
			Status      string          `json:"status"`
			Metrics     MetricsSnapshot `json:"metrics"`
			Experiments []string        `json:"experiments"`
		}{
			Status:      "ok",
			Metrics:     snapshot(),
			Experiments: harness.ExperimentNames(),
		})
	})
	return mux
}

func decodeSpec(w http.ResponseWriter, r *http.Request) (Spec, bool) {
	var spec Spec
	if err := httpx.DecodeStrict(r, maxBodyBytes, &spec); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("service: %w", err))
		return Spec{}, false
	}
	return spec, true
}

func writeJSON(w http.ResponseWriter, code int, v any) { httpx.WriteJSON(w, code, v) }

func httpError(w http.ResponseWriter, code int, err error) { httpx.Error(w, code, err) }
