// Command ciaoserve runs the CIAO reproduction as a long-lived HTTP
// service. Experiment results are cached (content-addressed LRU) and
// identical in-flight requests are coalesced, so a cell is simulated
// at most once no matter how many clients ask for it.
//
// Sweeps run in-process and survive kill -9: on startup every sweep
// under -sweepdir with unsettled cells that no client cancelled
// resumes from its store under its original id — settled cells are
// skipped, failed ones re-run (disable with -no-recover). One
// ciaoserve owns a -sweepdir.
//
// Each sweep's results live in one append-only NDJSON file beside its
// manifest. Live /sweeps/{id}/results followers copy that file as it
// grows, woken by each append instead of polling it; -sync-results
// fsyncs every record.
//
// Endpoints:
//
//	POST   /run                  one bench × sched cell, synchronous
//	POST   /experiment           fig8, fig1b, fig4, fig9, fig10, fig11a,
//	                             fig11b, fig12a, fig12b, timeseries,
//	                             overhead, run — async
//	GET    /jobs/{id}            poll an async job; result inlined once done
//	POST   /sweeps               start (or resume) a declarative
//	                             parameter sweep
//	GET    /sweeps               list sweeps
//	GET    /sweeps/{id}          sweep progress (done/total, failures,
//	                             geomean-so-far)
//	GET    /sweeps/{id}/results  stream results as NDJSON, following the
//	                             sweep live (?follow=0 for a snapshot)
//	DELETE /sweeps/{id}          cancel a sweep (results kept on disk;
//	                             restarts do not resume it)
//	GET    /metrics              cache/engine/sweep counters
//	                             plus per-route RED metrics; JSON by
//	                             default, Prometheus text exposition
//	                             with ?format=prom or Accept: text/plain
//	GET    /healthz              liveness + the same counters
//
// Every request is classified into a bounded route-class label and
// observed into RED (rate, errors, duration) series; /run and /sweeps
// shed load with 429 + Retry-After: 1 once their accept queue or the
// engine queue reaches -maxqueue. SIGINT/SIGTERM drains in-flight
// requests for up to -drain before exiting.
//
// Example:
//
//	ciaoserve -addr :8080 &
//	curl -s localhost:8080/run -d '{"bench":"SYRK","sched":"CIAO-C","options":{"instr_per_warp":2000}}'
//	curl -s localhost:8080/sweeps -d @examples/sweep-l1-capacity.json
//	curl -sN localhost:8080/sweeps/<id>/results
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "max concurrent simulations, figure cells included (0 = GOMAXPROCS)")
		entries   = flag.Int("cache", 256, "result cache capacity in entries (<= 0 disables)")
		jobs      = flag.Int("jobs", 1024, "max retained async job records (oldest finished evicted first)")
		sweepDir  = flag.String("sweepdir", "sweeps", "directory for on-disk sweep results")
		noRecover = flag.Bool("no-recover", false, "do not resume the interrupted sweeps under -sweepdir at startup")

		syncResults = flag.Bool("sync-results", false, "fsync a sweep's results file after every settled cell record; off, a power loss can drop the last unflushed lines (their cells re-run on resume)")

		maxQueue = flag.Int("maxqueue", 256, "overload: max requests queued for an engine slot before /run and /sweeps shed with 429 (<= 0 disables)")
		drain    = flag.Duration("drain", 15*time.Second, "shutdown: how long to drain in-flight requests after SIGINT/SIGTERM")
	)
	flag.Parse()

	s := newServer(serverOpts{
		workers:      *workers,
		cacheEntries: *entries,
		jobs:         *jobs,
		sweepDir:     *sweepDir,
		syncResults:  *syncResults,
		maxQueue:     *maxQueue,
	})
	if !*noRecover {
		// Resume the sweeps a crash or restart interrupted, under their
		// original ids. A directory that fails to resume is loud but
		// not fatal, and does not stop the others; the flag exists to
		// boot past a poisonous sweep directory.
		n, err := s.sweeps.Recover()
		if err != nil {
			log.Printf("sweep recovery: %v (start with -no-recover to skip)", err)
		}
		if n > 0 {
			log.Printf("resumed %d interrupted sweep(s) from %s", n, *sweepDir)
		}
	}
	srv := &http.Server{
		Addr:    *addr,
		Handler: s.handler,
		// ReadTimeout bounds slow request uploads (bodies are tiny
		// specs); IdleTimeout reaps abandoned keep-alive connections.
		// WriteTimeout stays zero: the sweep results endpoint streams
		// for as long as a sweep runs.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	log.Printf("ciaoserve listening on %s (workers=%d cache=%d sweepdir=%s maxqueue=%d)",
		*addr, *workers, *entries, *sweepDir, *maxQueue)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
		stop() // restore default signal handling: a second ^C kills immediately
		log.Printf("signal received; draining for up to %s", *drain)
		dctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(dctx); err != nil {
			log.Printf("drain incomplete after %s: %v; closing", *drain, err)
			srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			log.Printf("serve: %v", err)
		}
	}
}
