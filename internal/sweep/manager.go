package sweep

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/metrics"
	"repro/internal/service"
)

// Manager owns the sweeps of a long-lived server: it starts them
// against a shared engine, tracks their progress, persists their
// results under a base directory, and serves the /sweeps HTTP API.
type Manager struct {
	engine      *service.Engine
	dir         string
	parallelism int
	dist        Distributor

	mu       sync.Mutex
	runs     map[string]*Run
	order    []string
	active   map[string]*Run     // spec key → currently running sweep
	starting map[string]struct{} // spec keys between reservation and launch
	maxRuns  int
	seq      uint64

	counters      metrics.SweepCounters
	storeCounters metrics.StoreCounters // tiered-store metrics, shared by every store
	storeOpts     StoreOptions          // applied to every store this manager opens
	red           *metrics.RED          // per-sweep cell RED series, nil = disabled
}

// NewManager builds a manager persisting sweeps under dir.
// parallelism bounds concurrently submitted cells per sweep (0 = the
// runner default).
func NewManager(e *service.Engine, dir string, parallelism int) *Manager {
	return &Manager{
		engine:      e,
		dir:         dir,
		parallelism: parallelism,
		runs:        map[string]*Run{},
		active:      map[string]*Run{},
		starting:    map[string]struct{}{},
		maxRuns:     256,
	}
}

// Distributor runs a sweep's cells on remote workers instead of the
// local engine — implemented by the coordinator hub (internal/coord),
// which leases shards to worker processes and merges their uploads
// into the store. The interface lives here so sweep does not import
// coord. onProgress deliveries must be ordered (invoked under the
// distributor's lock), matching Runner.OnProgress semantics.
type Distributor interface {
	Distribute(id string, spec Spec, cells []Cell, store *Store, onProgress func(Progress)) (DistributedRun, error)
}

// DistributedRun is a handle on one distributed sweep execution.
type DistributedRun interface {
	// Done is closed when the run reaches a terminal state.
	Done() <-chan struct{}
	// Progress snapshots the run.
	Progress() Progress
	// Cancel stops the run: pending shards are dropped and in-flight
	// leases answer stale.
	Cancel()
}

// SetDistributor installs the coordinator hub that executes sweeps
// whose spec sets "distributed": true. Call before serving requests.
func (m *Manager) SetDistributor(d Distributor) { m.dist = d }

// SetRED installs a registry for per-sweep cell RED series: every
// record a sweep's store accepts — local runner results and
// coordinator merges alike — is observed into a series labeled by the
// sweep id, with the cell's elapsed time as the duration. Call before
// serving requests.
func (m *Manager) SetRED(r *metrics.RED) { m.red = r }

// SetStoreOptions sets the durability/compaction tuning applied to
// every store the manager opens from now on (started or recovered).
// Call before serving requests.
func (m *Manager) SetStoreOptions(o StoreOptions) { m.storeOpts = o }

// observeStore hooks a sweep's store into the manager's observability
// and applies the configured store options — the single hook-up point
// shared by Start and Recover.
func (m *Manager) observeStore(id string, store *Store) {
	store.SetOptions(m.storeOpts)
	store.SetCounters(&m.storeCounters)
	if m.red == nil {
		return
	}
	s := m.red.Series(id)
	store.SetObserver(func(rec CellRecord) {
		s.Observe(time.Duration(rec.Elapsed)*time.Millisecond, rec.Status == StatusFailed)
	})
}

// Recoverer is the optional Distributor extension for crash-safe
// coordinators. NeedsRecovery cheaply reports whether a sweep
// directory holds an unfinished coordinator journal — the gate that
// keeps startup from re-opening (and re-parsing) the store of every
// finished sweep ever run. Recover then rebuilds the in-flight run
// for one such directory (store + co-located journal) and resumes
// serving it under its original id; run == nil with a nil error means
// the directory needed no recovery after all.
type Recoverer interface {
	NeedsRecovery(dir string) (bool, error)
	Recover(spec Spec, cells []Cell, store *Store, onProgress func(Progress)) (run DistributedRun, id string, err error)
}

// Run is one managed sweep execution.
type Run struct {
	id      string
	spec    Spec
	store   *Store
	created time.Time
	cancel  context.CancelFunc
	done    chan struct{}

	mu   sync.Mutex
	prog Progress
}

// ID returns the sweep identifier.
func (r *Run) ID() string { return r.id }

// Progress snapshots the run.
func (r *Run) Progress() Progress {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.prog
}

// Done is closed when the run finishes (any terminal state).
func (r *Run) Done() <-chan struct{} { return r.done }

// Status is the JSON view of a managed sweep.
type Status struct {
	ID          string    `json:"id"`
	Name        string    `json:"name"`
	Dir         string    `json:"dir"`
	Created     time.Time `json:"created"`
	Distributed bool      `json:"distributed,omitempty"`
	Progress
}

// Status snapshots the run for serving.
func (r *Run) Status() Status {
	return Status{
		ID:          r.id,
		Name:        r.spec.Name,
		Dir:         r.store.Dir(),
		Created:     r.created,
		Distributed: r.spec.Distributed,
		Progress:    r.Progress(),
	}
}

// Start expands the spec, opens (or resumes) its store under the base
// directory, and launches the sweep asynchronously. The store
// directory is keyed by the spec's content address, so re-POSTing a
// spec whose earlier run was killed or cancelled resumes it (only the
// missing cells execute), and POSTing a spec that is already running
// returns the in-flight run instead of double-writing its store.
func (m *Manager) Start(spec Spec) (*Run, error) {
	cells, err := spec.Expand()
	if err != nil {
		return nil, err
	}
	if spec.Distributed && m.dist == nil {
		return nil, fmt.Errorf("sweep: spec %q requests a distributed run but no coordinator is mounted", spec.Name)
	}
	key := spec.Key()

	// Reserve the spec key before any store I/O, so two concurrent
	// POSTs of the same spec cannot both open the store and run every
	// cell twice: the first wins, the second sees the reservation.
	m.mu.Lock()
	if run, ok := m.active[key]; ok {
		m.mu.Unlock()
		return run, nil
	}
	if _, ok := m.starting[key]; ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("sweep %q is already starting; retry shortly", spec.Name)
	}
	m.starting[key] = struct{}{}
	m.seq++
	id := fmt.Sprintf("sweep-%d-%s", m.seq, key[:12])
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.starting, key)
		m.mu.Unlock()
	}()

	dir := filepath.Join(m.dir, "sweep-"+key[:16])
	store, err := Create(dir, id, spec, len(cells))
	if err != nil {
		// The directory already holds this sweep (an earlier run, or a
		// run from before a server restart): resume it. The manifest
		// pins the spec, so a key collision cannot mix sweeps. If the
		// resume fails too, both causes matter — the Open error is the
		// actionable one, so it is the wrapped error.
		var openErr error
		store, openErr = Open(dir, spec)
		if openErr != nil {
			return nil, fmt.Errorf("sweep: start %q: create failed (%v); resume failed: %w", spec.Name, err, openErr)
		}
	}

	m.observeStore(id, store)
	ctx, cancel := context.WithCancel(context.Background())
	run := &Run{
		id:      id,
		spec:    spec,
		store:   store,
		created: time.Now().UTC(),
		cancel:  cancel,
		done:    make(chan struct{}),
		prog:    Progress{State: StateRunning, Total: len(cells)},
	}
	m.mu.Lock()
	m.runs[id] = run
	m.order = append(m.order, id)
	m.active[key] = run
	m.pruneRunsLocked()
	m.mu.Unlock()
	m.counters.Started.Inc()

	go func() {
		defer close(run.done)
		defer store.Close()
		defer func() {
			m.mu.Lock()
			delete(m.active, key)
			m.mu.Unlock()
		}()
		var final Progress
		var err error
		switch {
		case spec.Search != nil:
			// Searches — local or distributed — run the round loop; the
			// round runner picks the execution path per round.
			final, err = RunSearch(ctx, spec, store, m.searchRoundRunner(run, spec, store))
		case spec.Distributed:
			final, err = m.runDistributed(ctx, run, spec, cells, store)
		default:
			runner := &Runner{
				Engine:      m.engine,
				Store:       store,
				Parallelism: m.parallelism,
				OnProgress:  m.progressSink(run),
			}
			final, err = runner.Run(ctx, cells)
		}
		if err != nil && final.Error == "" {
			final.Error = err.Error()
		}
		run.mu.Lock()
		run.prog = final
		run.mu.Unlock()
	}()
	return run, nil
}

// progressSink builds the ordered progress observer shared by local
// and distributed runs: it differences successive snapshots into the
// manager-wide counters and mirrors the latest snapshot on the run.
// The counters accumulate *events*, not final states: a cell that
// fails, is re-assigned and then succeeds counts once in CellsFailed
// and once in CellsDone (the coordinator's Progress.Failed decrement
// is deliberately not mirrored — monotonic counters cannot go down).
func (m *Manager) progressSink(run *Run) func(Progress) {
	var last Progress
	return func(p Progress) {
		// Deliveries are ordered (see Runner.OnProgress), so the
		// positive deltas below are meaningful; negative ones (a
		// failed-then-ok re-assignment) are skipped by the > 0 guards.
		okCells := (p.Done - p.Skipped) - (last.Done - last.Skipped)
		if okCells > 0 {
			m.counters.CellsDone.Add(uint64(okCells))
		}
		if d := p.Failed - last.Failed; d > 0 {
			m.counters.CellsFailed.Add(uint64(d))
		}
		last = p
		run.mu.Lock()
		run.prog = p
		run.mu.Unlock()
	}
}

// runDistributed hands the sweep to the coordinator hub and waits for
// it to finish (or for the run to be cancelled).
func (m *Manager) runDistributed(ctx context.Context, run *Run, spec Spec, cells []Cell, store *Store) (Progress, error) {
	d, err := m.dist.Distribute(run.id, spec, cells, store, m.progressSink(run))
	if err != nil {
		return Progress{State: StateFailed, Total: len(cells)}, err
	}
	return m.waitDistributed(ctx, d)
}

// searchRoundRunner builds the RoundRunner a managed halving search
// executes its rounds through: the in-process Runner normally, or one
// coordinator round over the round's self-contained plain spec when
// the search spec says distributed. Each distributed round registers
// under its own "<base>.r<round>.<attempt>" id — the hub's
// register/unregister lifecycle is strictly one id per coordinator, so
// rounds must not reuse the base sweep id.
func (m *Manager) searchRoundRunner(run *Run, spec Spec, store *Store) RoundRunner {
	sink := m.progressSink(run)
	attempt := 0
	return func(ctx context.Context, plan *SearchPlan) (Progress, error) {
		if !spec.Distributed {
			runner := &Runner{
				Engine:      m.engine,
				Store:       store,
				Parallelism: m.parallelism,
				OnProgress:  plan.Decorate(sink),
			}
			return runner.Run(ctx, plan.NewCells)
		}
		attempt++
		id := fmt.Sprintf("%s.r%d.%d", baseSearchID(run.ID()), plan.Round, attempt)
		d, err := m.dist.Distribute(id, plan.RoundSpec, plan.NewCells, store, plan.Decorate(sink))
		if err != nil {
			return Progress{State: StateFailed, Total: len(plan.NewCells)}, err
		}
		return m.waitDistributed(ctx, d)
	}
}

// waitDistributed blocks until a distributed run reaches a terminal
// state, cancelling it when ctx ends first.
func (m *Manager) waitDistributed(ctx context.Context, d DistributedRun) (Progress, error) {
	select {
	case <-d.Done():
	case <-ctx.Done():
		d.Cancel()
		<-d.Done()
	}
	final := d.Progress()
	if final.State == StateFailed && final.Error != "" {
		return final, errors.New(final.Error)
	}
	return final, nil
}

// Recover scans the manager's base directory for distributed sweeps a
// crash or restart interrupted — directories holding a coordinator
// journal whose sweep never finished — and resumes serving them under
// their original ids, so workers that survived the outage keep
// heartbeating the leases they hold and /sweeps keeps answering for
// the same run. Call once at startup, after SetDistributor and before
// serving requests. It reports how many sweeps resumed; per-directory
// failures are joined into err but do not stop the scan (one corrupt
// directory must not strand every other sweep).
func (m *Manager) Recover() (recovered int, err error) {
	rec, ok := m.dist.(Recoverer)
	if !ok {
		return 0, nil
	}
	entries, err := os.ReadDir(m.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var errs []error
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		dir := filepath.Join(m.dir, ent.Name())
		if _, serr := os.Stat(filepath.Join(dir, CoordJournalFile)); serr != nil {
			continue // a local sweep, or nothing was ever journaled
		}
		ok, rerr := m.recoverDir(rec, dir)
		if rerr != nil {
			errs = append(errs, fmt.Errorf("%s: %w", dir, rerr))
			continue
		}
		if ok {
			recovered++
		}
	}
	return recovered, errors.Join(errs...)
}

// recoverDir resumes one sweep directory, reporting false when its
// journal shows a finished sweep (or its spec is already running).
// Search sweeps get a second chance past the journal gate: a crash
// *between* distributed rounds leaves a finished journal behind while
// the search itself still has rounds to run, which only the manifest
// (and the settled results) can reveal.
func (m *Manager) recoverDir(rec Recoverer, dir string) (bool, error) {
	need, err := rec.NeedsRecovery(dir)
	if err != nil {
		return false, err
	}
	man, merr := readManifest(dir)
	if merr != nil {
		if need {
			return false, merr
		}
		return false, nil
	}
	if man.Spec.Search != nil {
		return m.resumeSearchDir(rec, man, dir, need)
	}
	if !need {
		return false, nil
	}
	return m.resumeDir(rec, man, dir)
}

// resumeDir rebuilds one crashed sweep directory's run through the
// distributor's Recover and registers it under its original id. It
// reports false when the journal holds nothing resumable or the spec
// is already running here.
func (m *Manager) resumeDir(rec Recoverer, man Manifest, dir string) (bool, error) {
	spec := man.Spec
	cells, err := spec.Expand()
	if err != nil {
		return false, err
	}
	key := spec.Key()
	m.mu.Lock()
	if _, busy := m.active[key]; busy {
		m.mu.Unlock()
		return false, nil
	}
	m.starting[key] = struct{}{}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.starting, key)
		m.mu.Unlock()
	}()

	store, err := Open(dir, spec)
	if err != nil {
		return false, err
	}
	// Options and counters attach before Recover: a recovered
	// coordinator can start merging worker uploads immediately, and
	// those appends must already see the configured durability.
	store.SetOptions(m.storeOpts)
	store.SetCounters(&m.storeCounters)
	ctx, cancel := context.WithCancel(context.Background())
	run := &Run{
		spec:    spec,
		store:   store,
		created: man.Created,
		cancel:  cancel,
		done:    make(chan struct{}),
		prog:    Progress{State: StateRunning, Total: len(cells)},
	}
	d, id, err := rec.Recover(spec, cells, store, m.progressSink(run))
	if err != nil || d == nil {
		store.Close()
		cancel()
		return false, err
	}
	run.id = id
	m.observeStore(id, store)

	m.mu.Lock()
	m.runs[id] = run
	m.order = append(m.order, id)
	m.active[key] = run
	m.bumpSeqLocked(id)
	m.pruneRunsLocked()
	m.mu.Unlock()

	go func() {
		defer close(run.done)
		defer store.Close()
		defer func() {
			m.mu.Lock()
			delete(m.active, key)
			m.mu.Unlock()
		}()
		final, werr := m.waitDistributed(ctx, d)
		if werr != nil && final.Error == "" {
			final.Error = werr.Error()
		}
		run.mu.Lock()
		run.prog = final
		run.mu.Unlock()
	}()
	return true, nil
}

// resumeSearchDir rebuilds an interrupted halving-search sweep. The
// manifest pins the search spec, and the next round is a pure function
// of the spec plus the store's settled results, so the resumed run
// re-derives exactly the frontier the crash interrupted. journalLive
// says the directory holds an unfinished coordinator journal: that
// round is resumed through the distributor's Recover first — surviving
// workers keep their leases — and the remaining rounds then run
// through the ordinary search loop.
func (m *Manager) resumeSearchDir(rec Recoverer, man Manifest, dir string, journalLive bool) (bool, error) {
	spec := man.Spec
	if man.SearchDone && !journalLive {
		return false, nil // finished search; nothing to serve
	}
	key := spec.Key()
	m.mu.Lock()
	if _, busy := m.active[key]; busy {
		m.mu.Unlock()
		return false, nil
	}
	m.starting[key] = struct{}{}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.starting, key)
		m.mu.Unlock()
	}()

	store, err := Open(dir, spec)
	if err != nil {
		return false, err
	}
	store.SetOptions(m.storeOpts)
	store.SetCounters(&m.storeCounters)
	plan, err := spec.DeriveSearch(store.Completed(), store.FailedCells())
	if err != nil {
		store.Close()
		return false, err
	}
	if plan.Finished && !journalLive {
		// The search had settled before the crash; only the manifest
		// stamp was lost. Restore it so the next startup skips the
		// directory without opening the store.
		err := store.MarkSearchDone()
		store.Close()
		return false, err
	}

	ctx, cancel := context.WithCancel(context.Background())
	run := &Run{
		spec:    spec,
		store:   store,
		created: man.Created,
		cancel:  cancel,
		done:    make(chan struct{}),
		prog: Progress{
			State: StateRunning, Total: plan.Issued,
			Done: plan.PriorDone, Failed: plan.PriorFailed,
			Round: plan.Round + 1, Rounds: plan.Rounds,
		},
	}
	var first DistributedRun
	id := ""
	if journalLive {
		first, id, err = rec.Recover(plan.RoundSpec, plan.NewCells, store, plan.Decorate(m.progressSink(run)))
		if err != nil {
			store.Close()
			cancel()
			return false, err
		}
	}
	if id != "" {
		// The journal names one *round* (<base>.rN.<attempt>); the
		// run's public handle is the search itself, so a client's
		// pre-crash id keeps resolving after recovery.
		id = baseSearchID(id)
	} else {
		// No live journaled round to inherit an id from (none, or it was
		// already terminal): mint a fresh one.
		m.mu.Lock()
		m.seq++
		id = fmt.Sprintf("sweep-%d-%s", m.seq, key[:12])
		m.mu.Unlock()
	}
	run.id = id
	m.observeStore(id, store)

	m.mu.Lock()
	m.runs[id] = run
	m.order = append(m.order, id)
	m.active[key] = run
	m.bumpSeqLocked(id)
	m.pruneRunsLocked()
	m.mu.Unlock()

	go func() {
		defer close(run.done)
		defer store.Close()
		defer func() {
			m.mu.Lock()
			delete(m.active, key)
			m.mu.Unlock()
		}()
		var final Progress
		var werr error
		if first != nil {
			final, werr = m.waitDistributed(ctx, first)
			final = plan.fold(final)
		}
		if werr == nil && (first == nil || final.State == StateDone) {
			final, werr = RunSearch(ctx, spec, store, m.searchRoundRunner(run, spec, store))
		}
		if werr != nil && final.Error == "" {
			final.Error = werr.Error()
		}
		run.mu.Lock()
		run.prog = final
		run.mu.Unlock()
	}()
	return true, nil
}

// bumpSeqLocked advances the id sequence past a recovered run's, so a
// later Start cannot mint the "sweep-<n>-<key>" id the recovered run
// already answers to. Callers must hold m.mu.
func (m *Manager) bumpSeqLocked(id string) {
	var n uint64
	if _, err := fmt.Sscanf(id, "sweep-%d-", &n); err == nil && n > m.seq {
		m.seq = n
	}
}

// pruneRunsLocked evicts the oldest finished run records while over
// the retention bound (mirroring the engine's job retention). Their
// results stay on disk — only the in-memory handle goes away, after
// which the ID answers 404. Callers must hold m.mu.
func (m *Manager) pruneRunsLocked() {
	for len(m.runs) > m.maxRuns {
		evicted := false
		for i, id := range m.order {
			r := m.runs[id]
			if r.Progress().State != StateRunning {
				delete(m.runs, id)
				m.order = append(m.order[:i], m.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// Get looks up a run by ID.
func (m *Manager) Get(id string) (*Run, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, ok := m.runs[id]
	return r, ok
}

// Cancel stops a running sweep; completed cells stay on disk, so a
// later identical POST resumes it. It reports whether the ID exists.
func (m *Manager) Cancel(id string) (*Run, bool) {
	r, ok := m.Get(id)
	if !ok {
		return nil, false
	}
	r.cancel()
	return r, true
}

// List snapshots every managed sweep in start order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if r, ok := m.Get(id); ok {
			out = append(out, r.Status())
		}
	}
	return out
}

// MetricsSnapshot reports the sweep counters plus the number of
// currently running sweeps (for /metrics and /healthz).
func (m *Manager) MetricsSnapshot() map[string]any {
	m.mu.Lock()
	active := 0
	for _, r := range m.runs {
		if r.Progress().State == StateRunning {
			active++
		}
	}
	total := len(m.runs)
	m.mu.Unlock()
	snap := m.counters.Snapshot()
	return map[string]any{
		"started":      snap.Started,
		"cells_done":   snap.CellsDone,
		"cells_failed": snap.CellsFailed,
		"active":       active,
		"tracked":      total,
		"store":        m.storeCounters.Snapshot(),
	}
}

// WriteProm emits the sweep counters — and, when SetRED was called,
// the per-sweep cell RED families labeled by sweep id — in Prometheus
// text format.
func (m *Manager) WriteProm(p *metrics.PromWriter) {
	m.mu.Lock()
	active := 0
	for _, r := range m.runs {
		if r.Progress().State == StateRunning {
			active++
		}
	}
	tracked := len(m.runs)
	m.mu.Unlock()
	snap := m.counters.Snapshot()
	p.Counter("ciao_sweeps_started_total", "Sweeps started.", snap.Started)
	p.Counter("ciao_sweep_cells_done_total", "Sweep cells completed successfully.", snap.CellsDone)
	p.Counter("ciao_sweep_cells_failed_total", "Sweep cell failures.", snap.CellsFailed)
	p.Gauge("ciao_sweeps_active", "Sweeps currently running.", float64(active))
	p.Gauge("ciao_sweeps_tracked", "Sweep run records retained in memory.", float64(tracked))
	store := m.storeCounters.Snapshot()
	p.Counter("ciao_store_compactions_total", "Result-store compaction rewrites.", store.Compactions)
	p.Counter("ciao_store_segments_written_total", "Immutable result segments written.", store.SegmentsWritten)
	p.Counter("ciao_store_segment_bytes_total", "Result bytes moved into immutable segments (uncompressed).", store.SegmentBytes)
	p.Counter("ciao_store_tail_lagged_total", "Result followers cut off for lagging the broadcast.", store.TailLagged)
	p.Gauge("ciao_store_tail_subscribers", "Live result-stream followers.", float64(store.TailSubscribers))
	if m.red != nil {
		m.red.WriteProm(p, "ciao_sweep_cell", "sweep")
	}
}

// maxSpecBytes bounds sweep spec bodies.
const maxSpecBytes = 1 << 20

// Handler serves the sweep API:
//
//	POST   /sweeps                       — start a sweep from a JSON spec (202)
//	GET    /sweeps                       — list sweeps
//	GET    /sweeps/{id}                  — progress (done/total, failures, geomean)
//	GET    /sweeps/{id}/results          — NDJSON result stream (segments +
//	                                       live tail spliced); follows the
//	                                       sweep live unless ?follow=0
//	POST   /sweeps/{id}/compact          — freeze the tail's settled prefix
//	                                       into a segment now
//	DELETE /sweeps/{id}                  — cancel; completed cells stay on disk
func (m *Manager) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /sweeps", func(w http.ResponseWriter, r *http.Request) {
		var spec Spec
		if err := httpx.DecodeStrict(r, maxSpecBytes, &spec); err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("sweep: %w", err))
			return
		}
		run, err := m.Start(spec)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusAccepted, run.Status())
	})

	mux.HandleFunc("GET /sweeps", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, m.List())
	})

	mux.HandleFunc("GET /sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		run, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("sweep: unknown sweep %q", r.PathValue("id")))
			return
		}
		writeJSON(w, http.StatusOK, run.Status())
	})

	mux.HandleFunc("GET /sweeps/{id}/results", func(w http.ResponseWriter, r *http.Request) {
		run, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("sweep: unknown sweep %q", r.PathValue("id")))
			return
		}
		m.streamResults(w, r, run)
	})

	mux.HandleFunc("POST /sweeps/{id}/compact", func(w http.ResponseWriter, r *http.Request) {
		run, ok := m.Get(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("sweep: unknown sweep %q", r.PathValue("id")))
			return
		}
		seg, compacted, err := run.store.Compact()
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
			return
		}
		resp := struct {
			Compacted bool         `json:"compacted"`
			Segment   *SegmentInfo `json:"segment,omitempty"`
		}{Compacted: compacted}
		if compacted {
			resp.Segment = &seg
		}
		writeJSON(w, http.StatusOK, resp)
	})

	mux.HandleFunc("DELETE /sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		run, ok := m.Cancel(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("sweep: unknown sweep %q", r.PathValue("id")))
			return
		}
		// Wait briefly so the returned status usually reflects the
		// cancellation rather than racing it.
		select {
		case <-run.Done():
		case <-time.After(2 * time.Second):
		}
		writeJSON(w, http.StatusOK, run.Status())
	})
	return mux
}

// streamResults writes the store's logical result stream (committed
// segments spliced with the live tail) to the client and, by default,
// keeps following it until the sweep's store closes (tail -f
// semantics, ending in a clean EOF instead of an idle hang). ?follow=0
// returns the current snapshot.
//
// Followers ride the store's broadcast hub: one subscription per
// client, fed from the single in-memory append path, so N watchers do
// not cost N disk pollers. Disk is read only to catch a subscriber up
// — on first attach, or after it lagged the broadcast and was cut off.
// Byte offsets into the logical stream survive compaction, so a
// resync never re-sends or skips a record. Client disconnects are
// noticed via the request context, not the next append.
func (m *Manager) streamResults(w http.ResponseWriter, r *http.Request, run *Run) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	if r.URL.Query().Get("follow") == "0" {
		run.store.CopyRange(w, 0, run.store.LogicalSize())
		return
	}
	ctx := r.Context()
	var sent int64
	for {
		off, ch, cancel := run.store.Subscribe()
		if off > sent {
			if err := run.store.CopyRange(w, sent, off); err != nil {
				cancel()
				return // client went away (or the store is gone)
			}
			sent = off
			flush()
		}
		if ch == nil {
			return // store closed: the stream is complete — clean EOF
		}
	consume:
		for {
			select {
			case line, ok := <-ch:
				if !ok {
					// Lagged or closing: resubscribe and resync from sent.
					break consume
				}
				if _, err := w.Write(line); err != nil {
					cancel()
					return
				}
				sent += int64(len(line))
				flush()
			case <-ctx.Done():
				cancel()
				return
			}
		}
		cancel()
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) { httpx.WriteJSON(w, code, v) }

func httpError(w http.ResponseWriter, code int, err error) { httpx.Error(w, code, err) }
