package service

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
)

// Source reports how a result was obtained.
type Source string

// Result sources.
const (
	// SourceComputed means this request ran the simulation.
	SourceComputed Source = "computed"
	// SourceCache means the result was served from the LRU cache.
	SourceCache Source = "cache"
	// SourceCoalesced means an identical request was already in
	// flight and this one waited for it instead of re-simulating.
	SourceCoalesced Source = "coalesced"
)

// RunFunc executes a spec and returns its encoded result.
type RunFunc func(Spec) ([]byte, error)

// Engine executes experiment specs and runs each distinct simulation
// once. A "run" cell whose scheduler cannot act on its kernel
// (harness.SimulatedAs) is the GTO cell with the same options and
// machine under another name, so it is looked up, coalesced and
// executed as that cell and its payload relabelled. Every spec then
// passes a content-addressed LRU result cache, single-flight
// coalescing of identical in-flight specs, and a bounded worker pool
// so a burst of distinct requests cannot oversubscribe the host. A
// grid figure (fig8, fig11a/b, fig12a/b) is not one simulation: its
// cells run as ordinary "run" specs through the same engine, so they
// share results with /run and sweeps, and the figure itself holds no
// worker slot.
type Engine struct {
	run   RunFunc
	cache *ResultCache
	slots chan struct{}

	maxJobs   int
	mu        sync.Mutex
	inflight  map[string]*flight
	jobs      map[string]*Job
	jobOrder  []string // submission order, for bounded retention
	seq       uint64
	runs      metrics.Counter
	submitted metrics.Counter
	waiting   atomic.Int64
}

type flight struct {
	done    chan struct{}
	payload []byte
	err     error
}

// Config sizes an Engine.
type Config struct {
	// Workers bounds concurrently executing specs (0 = GOMAXPROCS).
	Workers int
	// CacheEntries bounds the result cache (0 = default 256,
	// negative = caching disabled).
	CacheEntries int
	// MaxJobs bounds retained job records, results included; the
	// oldest finished jobs are evicted first (0 = default 1024).
	MaxJobs int
	// Run overrides the executor; nil means Execute. Tests inject
	// counting fakes here.
	Run RunFunc
}

// NewEngine builds an engine.
func NewEngine(cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 256
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 1024
	}
	if cfg.Run == nil {
		cfg.Run = Execute
	}
	return &Engine{
		run:      cfg.Run,
		cache:    NewResultCache(cfg.CacheEntries),
		slots:    make(chan struct{}, cfg.Workers),
		maxJobs:  cfg.MaxJobs,
		inflight: make(map[string]*flight),
		jobs:     make(map[string]*Job),
	}
}

// Cache exposes the result cache (for stats endpoints).
func (e *Engine) Cache() *ResultCache { return e.cache }

// Simulations returns how many times the executor actually ran —
// cache hits, coalesced waits and cells answered from GTO's run do not
// count. A grid figure counts each cell it simulated.
func (e *Engine) Simulations() uint64 { return e.runs.Value() }

// JobsSubmitted returns how many async jobs Submit accepted.
func (e *Engine) JobsSubmitted() uint64 { return e.submitted.Value() }

// QueueDepth reports how many requests are blocked waiting for a
// worker slot right now. The admission controller sheds new work when
// this grows past its bound.
func (e *Engine) QueueDepth() int {
	if n := e.waiting.Load(); n > 0 {
		return int(n)
	}
	return 0
}

// Running reports how many worker slots are currently occupied.
func (e *Engine) Running() int { return len(e.slots) }

// WriteProm emits the engine's counters in Prometheus text format.
func (e *Engine) WriteProm(p *metrics.PromWriter) {
	cache := e.cache.Stats()
	p.Counter("ciao_cache_hits_total", "Result cache hits.", cache.Hits)
	p.Counter("ciao_cache_misses_total", "Result cache misses.", cache.Misses)
	p.Counter("ciao_cache_evictions_total", "Result cache evictions.", cache.Evictions)
	p.Gauge("ciao_cache_entries", "Live result cache entries.", float64(e.cache.Len()))
	p.Counter("ciao_simulations_total", "Simulations actually executed (cache hits excluded).", e.Simulations())
	p.Counter("ciao_jobs_submitted_total", "Async experiment jobs accepted.", e.JobsSubmitted())
	p.Gauge("ciao_engine_queue_depth", "Requests waiting for a worker slot.", float64(e.QueueDepth()))
	p.Gauge("ciao_engine_running", "Worker slots currently occupied.", float64(e.Running()))
}

// Run executes the spec synchronously, deduplicating against the
// cache and any identical in-flight request. A "run" cell that
// harness.SimulatedAs answers from GTO's run goes through both as the
// GTO cell, and the returned Source says how that cell's result was
// obtained. The returned payload is shared and must not be mutated.
func (e *Engine) Run(spec Spec) ([]byte, Source, error) {
	if err := spec.Validate(); err != nil {
		return nil, "", err
	}
	sim := spec
	if spec.Experiment == ExpRun {
		sim.Sched = harness.SimulatedAs(spec.Bench, spec.Sched, spec.request().Options)
	}
	payload, source, err := e.once(sim)
	if err != nil || sim.Sched == spec.Sched {
		return payload, source, err
	}
	return harness.RelabelCell(payload, sim.Sched, spec.Sched), source, nil
}

// once answers spec from the cache or from an identical in-flight run,
// or else executes it and caches the payload. The one cache lookup
// happens under e.mu: a run stores its payload before it leaves the
// in-flight table, so a request that misses the cache finds the run.
func (e *Engine) once(spec Spec) ([]byte, Source, error) {
	key := spec.Key()
	e.mu.Lock()
	if payload, ok := e.cache.Get(key); ok {
		e.mu.Unlock()
		return payload, SourceCache, nil
	}
	if f, ok := e.inflight[key]; ok {
		e.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, "", f.err
		}
		return f.payload, SourceCoalesced, nil
	}
	f := &flight{done: make(chan struct{})}
	e.inflight[key] = f
	e.mu.Unlock()

	payload, err := e.execute(spec)
	if err == nil {
		e.cache.Put(key, payload)
	}
	f.payload, f.err = payload, err
	e.mu.Lock()
	delete(e.inflight, key)
	e.mu.Unlock()
	close(f.done)

	if err != nil {
		return nil, "", err
	}
	return payload, SourceComputed, nil
}

// execute computes a spec the cache and the in-flight table missed.
// A grid figure takes no worker slot: its cells take slots of their
// own, and a figure holding one while they wait could deadlock a
// one-worker engine.
func (e *Engine) execute(spec Spec) ([]byte, error) {
	if exp, _ := harness.LookupExperiment(spec.Experiment); exp.Grid {
		return encode(exp.Build(spec.request(), e.CellRunner(spec.Options)))
	}
	e.waiting.Add(1)
	e.slots <- struct{}{}
	e.waiting.Add(-1)
	defer func() { <-e.slots }()
	e.runs.Inc()
	return e.run(spec)
}

// CellRunner returns a runner that executes each cell as a "run" spec
// with opts through Run, so cells share the cache, coalescing and
// worker pool with every other request. One call keeps at most Workers
// cells in flight, so a figure cannot flood the slot queue ahead of
// other clients.
func (e *Engine) CellRunner(opts OptionSpec) harness.CellRunner {
	return func(cells []harness.Cell) ([]harness.CellResult, error) {
		out := make([]harness.CellResult, len(cells))
		errs := make([]error, len(cells))
		sem := make(chan struct{}, cap(e.slots))
		var wg sync.WaitGroup
		for i, c := range cells {
			sem <- struct{}{}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-sem }()
				out[i], errs[i] = e.runCell(c, opts)
			}()
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				return nil, fmt.Errorf("service: cell %s/%s: %w", cells[i].Bench, cells[i].Sched, err)
			}
		}
		return out, nil
	}
}

func (e *Engine) runCell(c harness.Cell, opts OptionSpec) (harness.CellResult, error) {
	spec := Spec{Experiment: ExpRun, Bench: c.Bench, Sched: c.Sched, Options: opts}
	if !c.Config.IsZero() {
		spec.Config = &c.Config
	}
	payload, _, err := e.Run(spec)
	if err != nil {
		return harness.CellResult{}, err
	}
	var r harness.CellResult
	err = json.Unmarshal(payload, &r)
	return r, err
}

// JobState is a job's lifecycle phase.
type JobState string

// Job states.
const (
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// Job tracks one asynchronous experiment submission.
type Job struct {
	id      string
	spec    Spec
	created time.Time

	mu       sync.Mutex
	state    JobState
	source   Source
	payload  []byte
	err      error
	finished time.Time
}

// ID returns the job identifier.
func (j *Job) ID() string { return j.id }

// JobStatus is the JSON view of a job.
type JobStatus struct {
	ID       string          `json:"id"`
	Spec     Spec            `json:"spec"`
	State    JobState        `json:"state"`
	Source   Source          `json:"source,omitempty"`
	Error    string          `json:"error,omitempty"`
	Created  time.Time       `json:"created"`
	Finished *time.Time      `json:"finished,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
}

// Status snapshots the job.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	s := JobStatus{
		ID:      j.id,
		Spec:    j.spec,
		State:   j.state,
		Source:  j.source,
		Created: j.created,
	}
	if j.state != JobRunning {
		t := j.finished
		s.Finished = &t
	}
	if j.err != nil {
		s.Error = j.err.Error()
	}
	if j.state == JobDone {
		s.Result = j.payload
	}
	return s
}

// Submit validates the spec and starts it asynchronously, returning a
// job whose ID can be polled via Job lookup. Submitted jobs share the
// same cache and coalescing as synchronous Run calls. At most MaxJobs
// records are retained: once over the limit the oldest finished jobs
// are dropped, after which their IDs look up as unknown.
func (e *Engine) Submit(spec Spec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.seq++
	j := &Job{
		id:      fmt.Sprintf("job-%d-%s", e.seq, spec.Key()[:12]),
		spec:    spec,
		created: time.Now().UTC(),
		state:   JobRunning,
	}
	e.jobs[j.id] = j
	e.jobOrder = append(e.jobOrder, j.id)
	e.pruneJobsLocked()
	e.mu.Unlock()
	e.submitted.Inc()

	go func() {
		payload, source, err := e.Run(spec)
		j.mu.Lock()
		defer j.mu.Unlock()
		j.finished = time.Now().UTC()
		if err != nil {
			j.state, j.err = JobFailed, err
			return
		}
		j.state, j.source, j.payload = JobDone, source, payload
	}()
	return j, nil
}

// pruneJobsLocked evicts the oldest finished jobs while over the
// retention limit. Running jobs are never dropped, so the map can
// transiently exceed maxJobs under a burst of in-flight submissions.
// Callers must hold e.mu.
func (e *Engine) pruneJobsLocked() {
	for len(e.jobs) > e.maxJobs {
		evicted := false
		for i, id := range e.jobOrder {
			j := e.jobs[id]
			j.mu.Lock()
			finished := j.state != JobRunning
			j.mu.Unlock()
			if finished {
				delete(e.jobs, id)
				e.jobOrder = append(e.jobOrder[:i], e.jobOrder[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// Job looks up a submitted job by ID.
func (e *Engine) Job(id string) (*Job, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	j, ok := e.jobs[id]
	return j, ok
}
