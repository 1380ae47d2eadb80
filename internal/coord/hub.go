package coord

import (
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Body limits: control messages are tiny; a complete carries a whole
// shard's records (payloads included).
const (
	maxControlBytes  = 1 << 16
	maxCompleteBytes = 64 << 20
)

// Hub aggregates the live coordinators of one server, serves the
// /coord HTTP API to workers, and acts as the sweep manager's
// Distributor: a spec with "distributed": true is handed here instead
// of the in-process runner.
type Hub struct {
	cfg      Config
	counters metrics.CoordCounters
	// reg is the fleet registry every coordinator of this hub shares:
	// one entry per worker, covering its capabilities, liveness and
	// current leases across sweeps. A lease poll or heartbeat updates
	// it once instead of fanning out to every coordinator.
	reg *workerRegistry

	mu     sync.Mutex
	coords map[string]*Coordinator
	order  []string
}

// NewHub builds a hub; cfg applies to every coordinator it creates.
func NewHub(cfg Config) *Hub {
	return &Hub{
		cfg:    cfg,
		reg:    newWorkerRegistry(cfg.ttl()),
		coords: map[string]*Coordinator{},
	}
}

// Distribute implements sweep.Distributor: it stands up a coordinator
// for the sweep, registers it for leasing, and unregisters it when it
// finishes.
func (h *Hub) Distribute(id string, spec sweep.Spec, cells []sweep.Cell, store *sweep.Store, onProgress func(sweep.Progress)) (sweep.DistributedRun, error) {
	c := NewCoordinator(id, spec, cells, store, h.cfg, h.reg, &h.counters, onProgress)
	h.register(c)
	return c, nil
}

// NeedsRecovery implements the cheap probe of sweep.Recoverer: it
// replays only the journal (a finished sweep's is two lines) to
// report whether dir holds an interrupted coordinator, so startup
// never opens the stores of finished sweeps. A missing journal is a
// clean "no"; an unreadable one is an error — silently skipping it
// would drop a live sweep without a trace. One server owns a
// -sweepdir, so every unfinished journal in it is this server's to
// resume.
func (h *Hub) NeedsRecovery(dir string) (bool, error) {
	st, err := replayJournal(filepath.Join(dir, sweep.CoordJournalFile))
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	return st.sweepID != "" && !st.finished, nil
}

// Recover implements sweep.Recoverer: it rebuilds the coordinator for
// one crashed sweep directory from the journal co-located with the
// store and resumes serving its leases under the original sweep id,
// so workers that survived the outage keep heartbeating the lease ids
// they hold. (nil, "", nil) means the directory needs no recovery —
// no journal, or the journaled sweep already reached a terminal
// state.
func (h *Hub) Recover(spec sweep.Spec, cells []sweep.Cell, store *sweep.Store, onProgress func(sweep.Progress)) (sweep.DistributedRun, string, error) {
	c, err := recoverCoordinator(spec, cells, store, h.cfg, h.reg, &h.counters, onProgress)
	if err != nil || c == nil {
		return nil, "", err
	}
	h.register(c)
	return c, c.ID(), nil
}

// register serves a coordinator's leases until it finishes.
func (h *Hub) register(c *Coordinator) {
	id := c.ID()
	h.mu.Lock()
	h.coords[id] = c
	h.order = append(h.order, id)
	h.mu.Unlock()
	go func() {
		<-c.Done()
		h.mu.Lock()
		delete(h.coords, id)
		for i, cid := range h.order {
			if cid == id {
				h.order = append(h.order[:i], h.order[i+1:]...)
				break
			}
		}
		h.mu.Unlock()
	}()
}

// get returns the live coordinator for a sweep id.
func (h *Hub) get(id string) (*Coordinator, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.coords[id]
	return c, ok
}

// list snapshots the live coordinators in registration order.
func (h *Hub) list() []*Coordinator {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]*Coordinator, 0, len(h.order))
	for _, id := range h.order {
		if c, ok := h.coords[id]; ok {
			out = append(out, c)
		}
	}
	return out
}

// lease scans the live coordinators in order for a pending shard the
// worker is capable of running. active reports whether any coordinator
// exists at all, and starved that every denial was a capability
// mismatch — workers use the distinctions to tell "retry soon"
// (shards merely leased out) from "nothing I can ever serve right
// now" (counts toward -idle-exit) from "nothing to do". The poll
// lands in the fleet registry once — every sweep's starvation
// accounting reads the same entry, so a worker granted a shard here
// is still a live capability everywhere else (busy is not gone). A
// poll counts as starved only when the whole scan ends empty with at
// least one constraint denial and no merely-busy sweep — a worker
// served by sweep B is not starved just because sweep A's shards need
// more than it has.
func (h *Hub) lease(w WorkerID) (l Lease, ok, active, starved bool) {
	h.reg.observe(w, time.Now())
	coords := h.list()
	var starvedOf []*Coordinator
	busy := false
	for _, c := range coords {
		g, granted, constrained := c.leaseScan(w)
		if granted {
			l, ok = g, true
			break
		}
		if constrained {
			starvedOf = append(starvedOf, c)
		} else {
			// Denied without a constraint: the sweep's remaining shards
			// are leased out (or parked) and may come back — retrying
			// is meaningful, so the worker is not starved.
			busy = true
		}
	}
	if !ok && len(starvedOf) > 0 {
		// One denied poll is one starved lease, however many sweeps
		// were constrained; each of them still refreshes its status.
		h.counters.LeasesStarved.Inc()
		for _, c := range starvedOf {
			c.refreshStarved()
		}
	}
	return l, ok, len(coords) > 0, !ok && !busy && len(starvedOf) > 0
}

// HubMetrics is the hub's /metrics payload: the shared coordinator
// counters (field names come from CoordSnapshot's JSON tags) plus the
// number of live distributed sweeps.
type HubMetrics struct {
	Active int `json:"active"`
	metrics.CoordSnapshot
}

// MetricsSnapshot reports the coordinator counters plus the number of
// live distributed sweeps (for /metrics and /healthz).
func (h *Hub) MetricsSnapshot() HubMetrics {
	h.mu.Lock()
	active := len(h.coords)
	h.mu.Unlock()
	return HubMetrics{Active: active, CoordSnapshot: h.counters.Snapshot()}
}

// WriteProm emits the coordinator counters in Prometheus text format.
// Metric names are coord_<field> with the CoordSnapshot JSON tags as
// field names, matching the JSON /metrics payload one-for-one.
func (h *Hub) WriteProm(p *metrics.PromWriter) {
	m := h.MetricsSnapshot()
	p.Gauge("coord_active", "Live distributed sweeps on this server.", float64(m.Active))
	p.Counter("coord_leases_granted", "Shard leases granted to workers.", m.LeasesGranted)
	p.Counter("coord_leases_affine", "Leases steered to a worker that already held the shard's bench.", m.LeasesAffine)
	p.Counter("coord_leases_expired", "Leases expired after missed heartbeats.", m.LeasesExpired)
	p.Counter("coord_shards_reassigned", "Shards re-queued after lease expiry.", m.ShardsReassigned)
	p.Counter("coord_shards_completed", "Shards acked complete.", m.ShardsCompleted)
	p.Counter("coord_records_merged", "Worker records merged into canonical stores.", m.RecordsMerged)
	p.Counter("coord_records_deduped", "Worker records dropped as duplicates.", m.RecordsDeduped)
	p.Counter("coord_stale_acks", "Completes or heartbeats from expired leases.", m.StaleAcks)
	p.Counter("coord_leases_starved", "Lease polls denied for lack of matching shards.", m.LeasesStarved)
	p.Counter("coord_admin_expired", "Leases force-expired by an operator.", m.AdminExpired)
	p.Counter("coord_shards_quarantined", "Shards quarantined by an operator.", m.ShardsQuarantined)
	p.Counter("coord_shards_unquarantined", "Shards released from quarantine.", m.ShardsUnquarantined)
	p.Counter("coord_journal_entries", "Journal entries appended.", m.JournalEntries)
	p.Counter("coord_journal_replayed", "Journal entries replayed on recovery.", m.JournalReplayed)
	p.Counter("coord_journal_compactions", "Journal compaction rewrites.", m.JournalCompactions)
	p.Counter("coord_sweeps_recovered", "Sweeps reconstructed after a restart.", m.SweepsRecovered)
	p.Counter("coord_leases_recovered", "Leases restored still live after a restart.", m.LeasesRecovered)
}

// Lease statuses on the wire.
const (
	statusShard = "shard" // a lease was granted
	statusRetry = "retry" // work exists but every shard is leased out
	// statusStarved: pending work exists but none of it matches this
	// worker's tags/size hints. Workers treat it like idle for
	// -idle-exit purposes — only a differently-equipped worker can
	// unblock the remaining shards — while still polling, in case
	// unconstrained work frees up.
	statusStarved = "starved"
	statusIdle    = "idle" // no distributed sweep is live
	statusOK      = "ok"
	statusStale   = "stale" // lease no longer held; abandon the shard
)

type leaseRequest struct {
	Worker string `json:"worker"`
	// Tags advertises the worker's capabilities; shards whose spec
	// requires tags outside this set are never granted to it.
	Tags []string `json:"tags,omitempty"`
	// MaxCells caps how many cells the worker accepts per lease
	// (0 = unlimited) — the resource hint of a small host.
	MaxCells int `json:"max_cells,omitempty"`
}

type leaseResponse struct {
	Status  string      `json:"status"`
	RetryMS int64       `json:"retry_ms,omitempty"`
	Sweep   string      `json:"sweep,omitempty"`
	Shard   int         `json:"shard,omitempty"`
	Indexes []int       `json:"indexes,omitempty"`
	Spec    *sweep.Spec `json:"spec,omitempty"`
	TTLMS   int64       `json:"ttl_ms,omitempty"`
}

type heartbeatRequest struct {
	Worker string `json:"worker"`
	Sweep  string `json:"sweep"`
	Shard  int    `json:"shard"`
	// Tags/MaxCells ride along so a busy worker (heartbeating, not
	// polling) still counts as a live capability for starvation
	// accounting.
	Tags     []string `json:"tags,omitempty"`
	MaxCells int      `json:"max_cells,omitempty"`
}

type heartbeatResponse struct {
	Status string `json:"status"`
	TTLMS  int64  `json:"ttl_ms,omitempty"`
}

type completeRequest struct {
	Worker  string             `json:"worker"`
	Sweep   string             `json:"sweep"`
	Shard   int                `json:"shard"`
	Records []sweep.CellRecord `json:"records"`
}

type completeResponse struct {
	Status  string `json:"status"`
	Merged  int    `json:"merged"`
	Skipped int    `json:"skipped"`
}

// Handler serves the coordinator API:
//
//	POST /coord/lease              — acquire a shard lease ({"worker": id,
//	                                 "tags": [...], "max_cells": n})
//	POST /coord/heartbeat          — renew a lease; "stale" means abandon
//	POST /coord/complete           — upload a shard's records and ack it
//	GET  /coord/status             — shard tables of every live sweep
//	POST /coord/admin/expire       — force-expire a lease ({"sweep", "shard"})
//	POST /coord/admin/quarantine   — park a poisonous shard
//	POST /coord/admin/unquarantine — release a parked shard
//	GET  /coord/admin/leases       — live lease tables (ages, tags, renews)
func (h *Hub) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /coord/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if err := decodeBody(r, maxControlBytes, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		if req.Worker == "" {
			httpError(w, http.StatusBadRequest, errors.New("coord: lease needs a worker name"))
			return
		}
		tags, err := sweep.NormalizeTags(req.Tags)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("coord: %w", err))
			return
		}
		l, ok, active, starved := h.lease(WorkerID{Name: req.Worker, Tags: tags, MaxCells: req.MaxCells})
		var resp leaseResponse
		switch {
		case ok:
			resp = leaseResponse{
				Status:  statusShard,
				Sweep:   l.Sweep,
				Shard:   l.Shard,
				Indexes: l.Indexes,
				Spec:    &l.Spec,
				TTLMS:   l.TTL.Milliseconds(),
			}
		case starved:
			resp = leaseResponse{Status: statusStarved, RetryMS: 1000}
		case active:
			resp = leaseResponse{Status: statusRetry, RetryMS: 500}
		default:
			resp = leaseResponse{Status: statusIdle, RetryMS: 1000}
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("POST /coord/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if err := decodeBody(r, maxControlBytes, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		tags, terr := sweep.NormalizeTags(req.Tags)
		if terr != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("coord: %w", terr))
			return
		}
		wid := WorkerID{Name: req.Worker, Tags: tags, MaxCells: req.MaxCells}
		// A heartbeating worker is alive for every sweep's starvation
		// accounting, not just the one it is busy on — one registry
		// write covers them all (and keeps the worker visible even
		// when the sweep is already gone).
		h.reg.observe(wid, time.Now())
		c, ok := h.get(req.Sweep)
		if !ok || !c.Heartbeat(wid, req.Shard) {
			writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusStale})
			return
		}
		writeJSON(w, http.StatusOK, heartbeatResponse{Status: statusOK, TTLMS: h.cfg.ttl().Milliseconds()})
	})

	mux.HandleFunc("POST /coord/complete", func(w http.ResponseWriter, r *http.Request) {
		var req completeRequest
		if err := decodeBody(r, maxCompleteBytes, &req); err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		c, ok := h.get(req.Sweep)
		if !ok {
			// The sweep finished or was cancelled; the records have
			// nowhere to go, which is fine — their cells are either
			// already stored or intentionally dropped.
			writeJSON(w, http.StatusOK, completeResponse{Status: statusStale, Skipped: len(req.Records)})
			return
		}
		merged, skipped, err := c.Complete(req.Worker, req.Shard, req.Records)
		if errors.Is(err, ErrStale) {
			writeJSON(w, http.StatusOK, completeResponse{Status: statusStale, Skipped: len(req.Records)})
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		writeJSON(w, http.StatusOK, completeResponse{Status: statusOK, Merged: merged, Skipped: skipped})
	})

	mux.HandleFunc("GET /coord/status", func(w http.ResponseWriter, r *http.Request) {
		coords := h.list()
		out := make([]Snapshot, 0, len(coords))
		for _, c := range coords {
			out = append(out, c.Snapshot())
		}
		writeJSON(w, http.StatusOK, struct {
			Sweeps   []Snapshot `json:"sweeps"`
			Counters HubMetrics `json:"counters"`
		}{out, h.MetricsSnapshot()})
	})

	// Admin actions share one shape: resolve the sweep, apply, answer
	// ok or surface the refusal as a 409 (the shard exists but is in
	// the wrong state) so scripted operators can tell "retry won't
	// help" from a typo'd sweep id (404).
	adminAction := func(act func(*Coordinator, int) error) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			var req adminRequest
			if err := decodeBody(r, maxControlBytes, &req); err != nil {
				httpError(w, http.StatusBadRequest, err)
				return
			}
			// Shard is a pointer so an absent field is a 400, not a
			// silent action against shard 0 — strict decoding rejects
			// unknown fields but cannot catch missing ones.
			if req.Sweep == "" || req.Shard == nil {
				httpError(w, http.StatusBadRequest, errors.New("coord: admin request needs sweep and shard"))
				return
			}
			c, ok := h.get(req.Sweep)
			if !ok {
				httpError(w, http.StatusNotFound, fmt.Errorf("coord: no live sweep %q", req.Sweep))
				return
			}
			if err := act(c, *req.Shard); err != nil {
				httpError(w, http.StatusConflict, err)
				return
			}
			writeJSON(w, http.StatusOK, adminResponse{Status: statusOK, Sweep: c.ID(), Shard: *req.Shard})
		}
	}
	mux.HandleFunc("POST /coord/admin/expire", adminAction((*Coordinator).AdminExpire))
	mux.HandleFunc("POST /coord/admin/quarantine", adminAction((*Coordinator).Quarantine))
	mux.HandleFunc("POST /coord/admin/unquarantine", adminAction((*Coordinator).Unquarantine))
	mux.HandleFunc("GET /coord/admin/leases", func(w http.ResponseWriter, r *http.Request) {
		coords := h.list()
		out := make([]LeaseTable, 0, len(coords))
		for _, c := range coords {
			out = append(out, c.LeaseTable())
		}
		// The fleet rides along at the top level so workers that are
		// registered but hold no lease — idle tagged workers between
		// polls, or a fleet polling a hub with no live sweep — stay
		// visible to operators.
		writeJSON(w, http.StatusOK, struct {
			Sweeps  []LeaseTable `json:"sweeps"`
			Workers []WorkerSeen `json:"workers,omitempty"`
		}{out, h.reg.snapshot(time.Now())})
	})
	return mux
}

type adminRequest struct {
	Sweep string `json:"sweep"`
	Shard *int   `json:"shard"`
}

type adminResponse struct {
	Status string `json:"status"`
	Sweep  string `json:"sweep"`
	Shard  int    `json:"shard"`
}

func decodeBody(r *http.Request, limit int64, v any) error {
	if err := httpx.DecodeStrict(r, limit, v); err != nil {
		return fmt.Errorf("coord: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, code int, v any) { httpx.WriteJSON(w, code, v) }

func httpError(w http.ResponseWriter, code int, err error) { httpx.Error(w, code, err) }

// leaseFromResponse converts a wire lease back to the internal form.
func leaseFromResponse(resp leaseResponse) (Lease, error) {
	if resp.Spec == nil {
		return Lease{}, errors.New("coord: lease response missing spec")
	}
	return Lease{
		Sweep:   resp.Sweep,
		Shard:   resp.Shard,
		Indexes: resp.Indexes,
		Spec:    *resp.Spec,
		TTL:     time.Duration(resp.TTLMS) * time.Millisecond,
	}, nil
}
