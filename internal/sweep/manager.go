package sweep

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"strings"
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

	mu       sync.Mutex
	runs     map[string]*Run
	order    []string
	active   map[string]*Run     // spec key → currently running sweep
	starting map[string]struct{} // spec keys between reservation and launch
	maxRuns  int
	seq      uint64

	counters    metrics.SweepCounters
	syncResults bool         // fsync every record of every store this manager opens
	red         *metrics.RED // per-sweep cell RED series, nil = disabled
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

// SetRED installs a registry for per-sweep cell RED series: every
// record a sweep's store accepts is observed into a series labeled by
// the sweep id, with the cell's elapsed time as the duration. Call
// before serving requests.
func (m *Manager) SetRED(r *metrics.RED) { m.red = r }

// SetSyncResults makes every store the manager opens from now on
// (started or recovered) fsync each record it appends (see
// Store.SetSync). Call before serving requests.
func (m *Manager) SetSyncResults(on bool) { m.syncResults = on }

// observeStore applies the manager's sync setting to a sweep's store
// and hooks the store into the manager's observability.
func (m *Manager) observeStore(id string, store *Store) {
	store.SetSync(m.syncResults)
	if m.red == nil {
		return
	}
	s := m.red.Series(id)
	store.SetObserver(func(rec CellRecord) {
		s.Observe(time.Duration(rec.Elapsed)*time.Millisecond, rec.Status == StatusFailed)
	})
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
	ID      string    `json:"id"`
	Name    string    `json:"name"`
	Dir     string    `json:"dir"`
	Created time.Time `json:"created"`
	Progress
}

// Status snapshots the run for serving.
func (r *Run) Status() Status {
	return Status{
		ID:       r.id,
		Name:     r.spec.Name,
		Dir:      r.store.Dir(),
		Created:  r.created,
		Progress: r.Progress(),
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
	key := spec.Key()

	// Reserve the spec key before any store I/O, so two concurrent
	// POSTs of the same spec cannot both open the store and run every
	// cell twice: the first wins, the second sees the reservation.
	running, ok := m.reserve(key)
	if running != nil {
		return running, nil
	}
	if !ok {
		return nil, fmt.Errorf("sweep %q is already starting; retry shortly", spec.Name)
	}
	defer m.unreserve(key)
	m.mu.Lock()
	m.seq++
	id := fmt.Sprintf("sweep-%d-%s", m.seq, key[:12])
	m.mu.Unlock()

	dir := m.sweepDir(key)
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
		if err := store.MarkRunning(id); err != nil {
			store.Close()
			return nil, err
		}
	}
	return m.launch(id, key, spec, cells, store, time.Now().UTC()), nil
}

// sweepDir is the store directory of the spec with the given key.
func (m *Manager) sweepDir(key string) string {
	return filepath.Join(m.dir, "sweep-"+key[:16])
}

// reserve claims a spec key for a launch. It fails while the key is
// starting or running, returning the running run in the latter case.
func (m *Manager) reserve(key string) (running *Run, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if run, busy := m.active[key]; busy {
		return run, false
	}
	if _, busy := m.starting[key]; busy {
		return nil, false
	}
	m.starting[key] = struct{}{}
	return nil, true
}

// unreserve releases a key reserve claimed.
func (m *Manager) unreserve(key string) {
	m.mu.Lock()
	delete(m.starting, key)
	m.mu.Unlock()
}

// launch registers a run over an open store and executes its cells
// through the Runner in the background. Started and resumed sweeps
// share it; the run owns the store and closes it when it ends.
func (m *Manager) launch(id, key string, spec Spec, cells []Cell, store *Store, created time.Time) *Run {
	m.observeStore(id, store)
	ctx, cancel := context.WithCancel(context.Background())
	run := &Run{
		id:      id,
		spec:    spec,
		store:   store,
		created: created,
		cancel:  cancel,
		done:    make(chan struct{}),
		prog:    Progress{State: StateRunning, Total: len(cells)},
	}
	m.mu.Lock()
	m.runs[id] = run
	m.order = append(m.order, id)
	m.active[key] = run
	m.bumpSeqLocked(id)
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
		runner := &Runner{
			Engine:      m.engine,
			Store:       store,
			Parallelism: m.parallelism,
			OnProgress:  m.progressSink(run),
		}
		final, err := runner.Run(ctx, cells)
		if err != nil && final.Error == "" {
			final.Error = err.Error()
		}
		run.mu.Lock()
		run.prog = final
		run.mu.Unlock()
	}()
	return run
}

// progressSink builds the ordered progress observer of one run: it
// differences successive snapshots into the manager-wide counters and
// mirrors the latest snapshot on the run. The counters accumulate
// *events*, not final states: a cell that fails and later succeeds on
// a resume counts once in CellsFailed and once in CellsDone.
func (m *Manager) progressSink(run *Run) func(Progress) {
	var last Progress
	return func(p Progress) {
		// Deliveries are ordered (see Runner.OnProgress), so each delta
		// counts the cells settled since the previous snapshot.
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

// Recover resumes, under their original ids, the sweeps a crash or
// restart interrupted: every sweep directory under the base directory
// that still has an unsettled cell (neither an ok nor a failed record)
// and whose manifest carries no cancelled stamp. Resumption is the
// store resume Start uses — settled cells are skipped, failed ones
// re-run — so a settled sweep is left alone; only a re-POST retries its
// failures. Only directories this manager names (sweep-<spec key>) are
// considered, so stores another tool keeps under the same base are
// never taken over. Call once at startup, before serving requests. It
// reports how many sweeps resumed; per-directory failures (a corrupt
// manifest, or a directory in a form an older version left that this
// one refuses) are joined into err but do not stop the scan, so one
// such directory cannot strand every other sweep.
func (m *Manager) Recover() (recovered int, err error) {
	entries, err := os.ReadDir(m.dir)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	var errs []error
	for _, ent := range entries {
		if !ent.IsDir() || !strings.HasPrefix(ent.Name(), "sweep-") {
			continue
		}
		dir := filepath.Join(m.dir, ent.Name())
		ok, rerr := m.resumeDir(dir)
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

// resumeDir resumes one sweep directory, reporting false when it holds
// no manifest, belongs to another spec key, was cancelled, is settled,
// or its spec is already running here.
func (m *Manager) resumeDir(dir string) (bool, error) {
	man, err := readManifest(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	if man.Cancelled {
		return false, nil
	}
	spec := man.Spec
	key := spec.Key()
	if dir != m.sweepDir(key) {
		return false, nil
	}
	cells, err := spec.Expand()
	if err != nil {
		return false, err
	}
	if _, ok := m.reserve(key); !ok {
		return false, nil
	}
	defer m.unreserve(key)

	store, err := Open(dir, spec)
	if err != nil {
		return false, err
	}
	if isSettled(cells, store) {
		store.Close()
		return false, nil
	}
	m.launch(man.ID, key, spec, cells, store, man.Created)
	return true, nil
}

// isSettled reports whether every cell has an ok or failed record in
// the store. That alone decides a restart: a settled sweep is left
// alone (only a re-POST retries its failed cells), an unsettled one
// resumes.
func isSettled(cells []Cell, store *Store) bool {
	completed, failed := store.Completed(), store.FailedCells()
	for _, c := range cells {
		key := c.Key()
		if _, ok := completed[key]; ok {
			continue
		}
		if _, ok := failed[key]; !ok {
			return false
		}
	}
	return true
}

// bumpSeqLocked advances the id sequence past a resumed run's, so a
// later Start cannot mint the "sweep-<n>-<key>" id the resumed run
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

// Cancel stops a running sweep and stamps its manifest cancelled, so a
// restart does not resume it — even while cells already handed to the
// engine are still draining. Completed cells stay on disk, and a later
// identical POST resumes the sweep and lifts the stamp. Only the
// latest run of a spec stamps: an older run's store holds a stale copy
// of a manifest a later run has since rewritten, so cancelling it
// writes nothing. It reports whether the ID exists; err is a failed
// manifest write.
func (m *Manager) Cancel(id string) (run *Run, ok bool, err error) {
	m.mu.Lock()
	r, ok := m.runs[id]
	latest := ok && m.latestInDirLocked(r)
	m.mu.Unlock()
	if !ok {
		return nil, false, nil
	}
	r.cancel()
	if !latest {
		return r, true, nil
	}
	return r, true, r.store.MarkCancelled()
}

// latestInDirLocked reports whether r is the last run, in start order,
// over its store directory (one per spec key): the run whose id the
// directory's manifest records. Callers must hold m.mu.
func (m *Manager) latestInDirLocked(r *Run) bool {
	for i := len(m.order) - 1; i >= 0; i-- {
		if later := m.runs[m.order[i]]; later.store.Dir() == r.store.Dir() {
			return later == r
		}
	}
	return false
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

// sweepMetrics is one read of the manager's counters and run table,
// rendered by both MetricsSnapshot and WriteProm.
type sweepMetrics struct {
	started, cellsDone, cellsFailed uint64
	active, tracked                 int
}

func (m *Manager) readMetrics() sweepMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap := sweepMetrics{
		started:     m.counters.Started.Value(),
		cellsDone:   m.counters.CellsDone.Value(),
		cellsFailed: m.counters.CellsFailed.Value(),
		tracked:     len(m.runs),
	}
	for _, r := range m.runs {
		if r.Progress().State == StateRunning {
			snap.active++
		}
	}
	return snap
}

// MetricsSnapshot reports the sweep counters plus the number of
// currently running sweeps (for /metrics and /healthz).
func (m *Manager) MetricsSnapshot() map[string]any {
	snap := m.readMetrics()
	return map[string]any{
		"started":      snap.started,
		"cells_done":   snap.cellsDone,
		"cells_failed": snap.cellsFailed,
		"active":       snap.active,
		"tracked":      snap.tracked,
	}
}

// WriteProm emits the sweep counters — and, when SetRED was called,
// the per-sweep cell request, error and duration families labeled by
// sweep id — in Prometheus text format.
func (m *Manager) WriteProm(p *metrics.PromWriter) {
	snap := m.readMetrics()
	p.Counter("ciao_sweeps_started_total", "Sweeps started.", snap.started)
	p.Counter("ciao_sweep_cells_done_total", "Sweep cells completed successfully.", snap.cellsDone)
	p.Counter("ciao_sweep_cells_failed_total", "Sweep cell failures.", snap.cellsFailed)
	p.Gauge("ciao_sweeps_active", "Sweeps currently running.", float64(snap.active))
	p.Gauge("ciao_sweeps_tracked", "Sweep run records retained in memory.", float64(snap.tracked))
	if m.red != nil {
		m.red.WriteCellProm(p, "ciao_sweep_cell", "sweep")
	}
}

// maxSpecBytes bounds sweep spec bodies.
const maxSpecBytes = 1 << 20

// Handler serves the sweep API:
//
//	POST   /sweeps                       — start a sweep from a JSON spec (202)
//	GET    /sweeps                       — list sweeps
//	GET    /sweeps/{id}                  — progress (done/total, failures, geomean)
//	GET    /sweeps/{id}/results          — the results.ndjson stream;
//	                                       follows the sweep live unless
//	                                       ?follow=0
//	DELETE /sweeps/{id}                  — cancel; completed cells stay on
//	                                       disk, and restarts skip the sweep
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

	mux.HandleFunc("DELETE /sweeps/{id}", func(w http.ResponseWriter, r *http.Request) {
		run, ok, err := m.Cancel(r.PathValue("id"))
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Errorf("sweep: unknown sweep %q", r.PathValue("id")))
			return
		}
		if err != nil {
			httpError(w, http.StatusInternalServerError, err)
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

// streamResults writes the sweep's results.ndjson to the client and,
// by default, keeps following it until the sweep's store closes (tail
// -f semantics, ending in a clean EOF instead of an idle hang).
// ?follow=0 returns the current snapshot.
//
// A follower copies the file's settled prefix, which never changes,
// without holding the store lock, then waits for the next Append or
// Close to wake it; each wake copies whatever was appended since. So
// followers never hold up an append, and a slow one only falls behind
// itself. Client disconnects are noticed via the request context, not
// the next append.
func (m *Manager) streamResults(w http.ResponseWriter, r *http.Request, run *Run) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	follow := r.URL.Query().Get("follow") != "0"
	var sent int64
	for {
		size, wake := run.store.Follow()
		if err := run.store.CopyRange(w, sent, size); err != nil {
			return // client went away (or the store is gone)
		}
		sent = size
		if flusher != nil {
			flusher.Flush()
		}
		if wake == nil || !follow {
			return // store closed: the stream is complete — clean EOF
		}
		select {
		case <-wake:
		case <-r.Context().Done():
			return
		}
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) { httpx.WriteJSON(w, code, v) }

func httpError(w http.ResponseWriter, code int, err error) { httpx.Error(w, code, err) }
