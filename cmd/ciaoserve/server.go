package main

import (
	"log"
	"net/http"
	"time"

	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/service"
	"repro/internal/sweep"
)

// serverOpts assembles one ciaoserve instance. Zero values mean the
// same defaults the flags document; run and logf are test hooks (nil =
// the real executor and the standard access log).
type serverOpts struct {
	workers      int
	cacheEntries int
	jobs         int
	sweepDir     string
	parallelism  int

	// syncResults fsyncs every settled cell record of every sweep.
	syncResults bool

	// maxQueue bounds requests waiting for an engine slot before /run
	// and /sweeps shed with 429.
	maxQueue int

	run  service.RunFunc
	logf func(r *http.Request, code int, bytes int64, d time.Duration)
}

// server is the assembled ciaoserve instance: every subsystem plus the
// fully wrapped handler (routing, admission control, RED
// instrumentation).
type server struct {
	engine  *service.Engine
	sweeps  *sweep.Manager
	red     *metrics.RED
	handler http.Handler
}

// newServer wires the engine and the sweep manager into one handler
// behind the observability and backpressure middleware:
//
//	Instrument (RED + access log)
//	  └─ mux
//	       POST /run, /sweeps → admission → handler
//	       everything else → handler
//
// The admission controllers on /run and /sweeps have separate accept
// queues (a sweep burst cannot starve /run of queue slots) but share
// the engine's slot-wait depth as a second shed signal.
func newServer(o serverOpts) *server {
	cacheEntries := o.cacheEntries
	if cacheEntries <= 0 {
		cacheEntries = -1 // the engine treats 0 as "default"; the flag means "off"
	}
	engine := service.NewEngine(service.Config{Workers: o.workers, CacheEntries: cacheEntries, MaxJobs: o.jobs, Run: o.run})
	sweeps := sweep.NewManager(engine, o.sweepDir, o.parallelism)
	sweeps.SetSyncResults(o.syncResults)

	red := metrics.NewRED()
	sweepRED := metrics.NewRED()
	sweeps.SetRED(sweepRED)

	sweepH := sweeps.Handler()
	svc := service.NewHandler(engine,
		service.WithExtraMetrics(func() map[string]any {
			return map[string]any{"sweeps": sweeps.MetricsSnapshot()}
		}),
		service.WithHTTPRED(red),
		service.WithProm(sweeps.WriteProm))

	mux := http.NewServeMux()
	mux.Handle("/sweeps", sweepH)
	mux.Handle("/sweeps/", sweepH)
	mux.Handle("/", svc)

	// Backpressure wraps only the POSTs that create work; the Go 1.22
	// method+path patterns are more specific than the catch-alls above,
	// so they win routing for exactly those requests.
	admit := httpx.AdmissionConfig{MaxQueue: o.maxQueue, Depth: engine.QueueDepth}
	mux.Handle("POST /run", httpx.NewAdmission(admit).Wrap(red.Series("/run"), svc))
	mux.Handle("POST /sweeps", httpx.NewAdmission(admit).Wrap(red.Series("/sweeps"), sweepH))

	logf := o.logf
	if logf == nil {
		logf = func(r *http.Request, code int, bytes int64, d time.Duration) {
			log.Printf("%s %s %d %dB %s", r.Method, r.URL.Path, code, bytes, d.Round(time.Microsecond))
		}
	}
	return &server{
		engine:  engine,
		sweeps:  sweeps,
		red:     red,
		handler: httpx.Instrument(red, logf, mux),
	}
}
