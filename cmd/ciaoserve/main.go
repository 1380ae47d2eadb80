// Command ciaoserve runs the CIAO reproduction as a long-lived HTTP
// service. Experiment results are cached (content-addressed LRU) and
// identical in-flight requests are coalesced, so a cell is simulated
// at most once no matter how many clients ask for it.
//
// The distributed sweep coordinator is crash-safe: shard lease state
// journals to coord.journal.ndjson next to each sweep's results, and
// on startup interrupted sweeps are recovered from those journals and
// resume serving /coord under their original ids (disable with
// -no-recover). One ciaoserve owns a -sweepdir.
//
// Sweep results live in a tiered store: an append-only NDJSON tail
// per sweep, compacted (automatically past -compact-after records, or
// on demand) into immutable, optionally gzip'd segments that read
// back as one logical stream. Live /sweeps/{id}/results followers
// share one broadcast of the append path instead of polling the file.
//
// Endpoints:
//
//	POST   /run                  one bench × sched cell, synchronous
//	POST   /experiment           fig8, fig1b, fig4, fig9, fig10, fig11a,
//	                             fig11b, fig12a, fig12b, timeseries,
//	                             overhead, run — async
//	GET    /jobs/{id}            poll an async job; result inlined once done
//	POST   /sweeps               start a declarative parameter sweep
//	                             ("distributed": true hands it to the
//	                             shard coordinator instead of running
//	                             in-process)
//	GET    /sweeps               list sweeps
//	GET    /sweeps/{id}          sweep progress (done/total, failures,
//	                             geomean-so-far)
//	GET    /sweeps/{id}/results  stream results as NDJSON (segments +
//	                             live tail; ?follow=0 for a snapshot)
//	POST   /sweeps/{id}/compact  compact the live tail's settled prefix
//	                             into an immutable segment now
//	DELETE /sweeps/{id}          cancel a sweep (results kept on disk)
//	POST   /coord/lease          worker: acquire a shard lease (workers
//	                             advertise capability tags + max-cells
//	                             hints; constrained shards wait for a
//	                             matching worker)
//	POST   /coord/heartbeat      worker: renew a lease
//	POST   /coord/complete       worker: upload a shard's records
//	GET    /coord/status         shard tables of live distributed sweeps
//	POST   /coord/admin/expire   force-expire a lease ({"sweep","shard"})
//	POST   /coord/admin/quarantine    park a poisonous shard; the sweep
//	                                  can finish "done-with-quarantined"
//	POST   /coord/admin/unquarantine  release a parked shard
//	GET    /coord/admin/leases   live lease tables (ages, tags, renews)
//	GET    /metrics              cache/engine/sweep/coordinator counters
//	                             plus per-route RED metrics; JSON by
//	                             default, Prometheus text exposition
//	                             with ?format=prom or Accept: text/plain
//	GET    /healthz              liveness + the same counters
//
// Every request is classified into a bounded route-class label and
// observed into RED (rate, errors, duration) series; /run and /sweeps
// shed load with 429 + Retry-After once the engine queue or observed
// p95 latency degrades past -maxqueue / -shedlatency, and -clientrate
// adds a per-client token bucket. SIGINT/SIGTERM drains in-flight
// requests for up to -drain before exiting.
//
// Example:
//
//	ciaoserve -addr :8080 &
//	curl -s localhost:8080/run -d '{"bench":"SYRK","sched":"CIAO-C","options":{"instr_per_warp":2000}}'
//	curl -s localhost:8080/sweeps -d @examples/sweep-l1-capacity.json
//	curl -sN localhost:8080/sweeps/<id>/results
//	ciaosweep -worker http://localhost:8080 &   # serve leased shards
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

	"repro/internal/coord"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", 0, "max concurrent simulations, figure cells included (0 = GOMAXPROCS)")
		entries   = flag.Int("cache", 256, "result cache capacity in entries (<= 0 disables)")
		jobs      = flag.Int("jobs", 1024, "max retained async job records (oldest finished evicted first)")
		sweepDir  = flag.String("sweepdir", "sweeps", "directory for on-disk sweep results")
		shardSize = flag.Int("shardsize", coord.DefaultShardSize, "distributed sweeps: cells per leasable shard")
		leaseTTL  = flag.Duration("leasettl", coord.DefaultTTL, "distributed sweeps: lease TTL without a heartbeat")
		maxLeases = flag.Int("maxleases", coord.DefaultMaxLeases, "distributed sweeps: leases per shard before the sweep fails terminally")
		noRecover = flag.Bool("no-recover", false, "skip crash recovery of interrupted distributed sweeps under -sweepdir")

		compactAfter = flag.Int("compact-after", 4096, "result store: auto-compact a sweep's live tail into an immutable segment once it holds this many records (0 = only on POST /sweeps/{id}/compact)")
		gzipSegments = flag.Bool("gzip-segments", false, "result store: gzip-compress newly written segments")
		syncResults  = flag.Bool("sync-results", false, "result store: fsync after every settled cell record; off, a power loss can drop the last unflushed lines (their cells re-run on resume)")

		maxQueue    = flag.Int("maxqueue", 256, "overload: max requests queued for an engine slot before /run and /sweeps shed with 429 (<= 0 disables)")
		shedLatency = flag.Duration("shedlatency", 0, "overload: shed /run and /sweeps when the observed /run p95 exceeds this (0 disables)")
		clientRate  = flag.Float64("clientrate", 0, "overload: per-client request rate on the work-creating POSTs, requests/second (0 disables)")
		clientBurst = flag.Int("clientburst", 0, "overload: per-client burst allowance (0 = derived from -clientrate)")
		drain       = flag.Duration("drain", 15*time.Second, "shutdown: how long to drain in-flight requests after SIGINT/SIGTERM")
	)
	flag.Parse()

	s := newServer(serverOpts{
		workers:      *workers,
		cacheEntries: *entries,
		jobs:         *jobs,
		sweepDir:     *sweepDir,
		shardSize:    *shardSize,
		leaseTTL:     *leaseTTL,
		maxLeases:    *maxLeases,
		compactAfter: *compactAfter,
		gzipSegments: *gzipSegments,
		syncResults:  *syncResults,
		maxQueue:     *maxQueue,
		shedLatency:  *shedLatency,
		clientRate:   *clientRate,
		clientBurst:  *clientBurst,
	})
	if !*noRecover {
		// Resume distributed sweeps a crash or restart interrupted:
		// their coordinators rebuild from the per-sweep journal and
		// keep serving /coord under the original sweep ids, so workers
		// that outlived the outage stay on their leases. A recovery
		// failure is loud but not fatal — the flag exists to boot past
		// a poisonous sweep directory.
		if n, err := s.sweeps.Recover(); err != nil {
			log.Printf("sweep recovery: %v (start with -no-recover to skip)", err)
		} else if n > 0 {
			log.Printf("recovered %d distributed sweep(s) from %s", n, *sweepDir)
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
	log.Printf("ciaoserve listening on %s (workers=%d cache=%d sweepdir=%s shardsize=%d leasettl=%s maxqueue=%d)",
		*addr, *workers, *entries, *sweepDir, *shardSize, *leaseTTL, *maxQueue)

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
