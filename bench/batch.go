package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/sweep"
	"repro/internal/workload"
)

// batchDef is an in-process batch workload: Fig 8 through one
// service.Execute call, or a sweep through sweep.Runner, a fresh
// service.Engine and a fresh durable sweep.Store.
type batchDef struct {
	name    string
	instr   uint64
	fig8    bool
	classes []string
	scheds  []string
}

// The three batch workloads. README.md records why each was chosen.
var batchDefs = []batchDef{
	{name: "fig8", instr: 300, fig8: true},
	{name: "sweep-mem", instr: 3000, classes: []string{"LWS", "SWS"},
		scheds: []string{"GTO", "CCWS", "CIAO-C"}},
	{name: "sweep-compute", instr: 12000, classes: []string{"CI"},
		scheds: []string{"GTO", "Best-SWL", "statPCAL", "CIAO-T", "CIAO-P", "CIAO-C"}},
}

func findBatch(name string) (batchDef, bool) {
	for _, d := range batchDefs {
		if d.name == name {
			return d, true
		}
	}
	return batchDef{}, false
}

// batchRun is one batch workload at one scale and seed.
type batchRun struct {
	def     batchDef
	opts    service.OptionSpec
	workdir string // temp stores live here
	tr      *tracer
}

func newBatchRun(def batchDef, instr, seed uint64, workdir string) *batchRun {
	return &batchRun{
		def:     def,
		opts:    service.OptionSpec{InstrPerWarp: instr, Seed: seed},
		workdir: workdir,
		tr:      newTracer(),
	}
}

func (b *batchRun) sweepSpec() sweep.Spec {
	return sweep.Spec{
		Name:    "bench-" + b.def.name,
		Axes:    sweep.Axes{Schedulers: b.def.scheds, Classes: b.def.classes},
		Options: b.opts,
	}
}

// cells lists the workload's "run" specs in cell order: Fig 8's
// benchmark-major matrix, or the sweep's expansion.
func (b *batchRun) cells() ([]service.Spec, error) {
	if b.def.fig8 {
		var out []service.Spec
		for _, w := range workload.Suite() {
			for _, f := range harness.Schedulers() {
				out = append(out, service.Spec{Experiment: service.ExpRun, Bench: w.Name, Sched: f.Name, Options: b.opts})
			}
		}
		return out, nil
	}
	cells, err := b.sweepSpec().Expand()
	if err != nil {
		return nil, err
	}
	out := make([]service.Spec, len(cells))
	for i, c := range cells {
		out[i] = c.Spec
	}
	return out, nil
}

// repResult is one repetition of a batch workload.
type repResult struct {
	id       int // the rep span
	wall     time.Duration
	cpu      time.Duration // process CPU time
	payloads [][]byte      // in cell order; Fig 8 has one
	records  []sweep.CellRecord
}

// digest hashes the payloads in cell order.
func (r repResult) digest() string {
	h := sha256.New()
	for _, p := range r.payloads {
		h.Write(p)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// rep runs the workload once.
func (b *batchRun) rep() (repResult, error) {
	if b.def.fig8 {
		return b.fig8Rep()
	}
	return b.sweepRep()
}

func (b *batchRun) fig8Rep() (repResult, error) {
	spec := service.Spec{Experiment: service.ExpFig8, Options: b.opts}
	start := time.Now()
	id := b.tr.begin("rep", "", 0)
	ex := b.tr.begin("service.execute", "fig8", id)
	payload, err := service.Execute(spec)
	b.tr.end(ex)
	b.tr.end(id)
	res := repResult{id: id, wall: time.Since(start), payloads: [][]byte{payload}}
	return res, err
}

// timedSink wraps the durable store so every append is a span and every
// record is kept for the checks.
type timedSink struct {
	sweep.Sink
	tr  *tracer
	rep int

	mu   sync.Mutex
	recs []sweep.CellRecord
}

func (s *timedSink) Append(rec sweep.CellRecord) error {
	id := s.tr.begin("sweep.append", cellID(rec.Key), s.rep)
	err := s.Sink.Append(rec)
	s.tr.end(id)
	s.mu.Lock()
	s.recs = append(s.recs, rec)
	s.mu.Unlock()
	return err
}

func cellID(key string) string { return key[:12] }

// tracedExecute is the engine's Run hook: service.Execute inside a span.
func tracedExecute(tr *tracer, rep int) service.RunFunc {
	return func(spec service.Spec) ([]byte, error) {
		id := tr.begin("service.execute", cellID(spec.Key()), rep)
		defer tr.end(id)
		return service.Execute(spec)
	}
}

func (b *batchRun) sweepRep() (repResult, error) {
	spec := b.sweepSpec()
	cells, err := spec.Expand()
	if err != nil {
		return repResult{}, err
	}
	dir, err := os.MkdirTemp(b.workdir, b.def.name+"-")
	if err != nil {
		return repResult{}, fmt.Errorf("bench: store dir: %w", err)
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	id := b.tr.begin("rep", "", 0)
	store, err := sweep.Create(dir, spec.Name, spec, len(cells))
	if err != nil {
		return repResult{}, err
	}
	sink := &timedSink{Sink: store, tr: b.tr, rep: id}
	eng := service.NewEngine(service.Config{Workers: engineWorkers, Run: tracedExecute(b.tr, id)})
	runner := sweep.Runner{Engine: eng, Store: sink}
	_, runErr := runner.Run(context.Background(), cells)
	closeErr := store.Close()
	b.tr.end(id)
	res := repResult{id: id, wall: time.Since(start)}
	if runErr != nil {
		return res, runErr
	}
	if closeErr != nil {
		return res, fmt.Errorf("bench: close store: %w", closeErr)
	}
	sort.Slice(sink.recs, func(i, j int) bool { return sink.recs[i].Index < sink.recs[j].Index })
	res.records = sink.recs
	for _, r := range sink.recs {
		res.payloads = append(res.payloads, r.Result)
	}
	return res, nil
}

// cellOutcome checks one sweep record: stored ok, and not timed out.
func cellOutcome(rec sweep.CellRecord) error {
	if rec.Status != sweep.StatusOK {
		return fmt.Errorf("cell %d %s/%s: %s %s", rec.Index, rec.Bench, rec.Sched, rec.Status, rec.Error)
	}
	var c harness.CellResult
	if err := json.Unmarshal(rec.Result, &c); err != nil {
		return fmt.Errorf("cell %d: payload: %w", rec.Index, err)
	}
	if c.TimedOut {
		return fmt.Errorf("cell %d %s/%s timed out", rec.Index, rec.Bench, rec.Sched)
	}
	return nil
}

// fig8Payload is the part of Fig 8's JSON the checks read.
type fig8Payload struct {
	Benchmarks []string                      `json:"benchmarks"`
	Schedulers []string                      `json:"schedulers"`
	Normalized map[string]map[string]float64 `json:"normalized_ipc"`
	Overall    map[string]float64            `json:"overall_geomean"`
}

// checkAgainstCount compares the count pass with a repetition's
// payloads: for sweeps the NewCellResult JSON must equal the stored
// payload byte for byte; for Fig 8 every normalized IPC must equal the
// count pass's IPC ratio exactly. Only cells present in counted are
// compared, so a sample of cells works too.
func (b *batchRun) checkAgainstCount(r *report, rep repResult, counted []countCell) {
	if b.def.fig8 {
		var fig fig8Payload
		if err := json.Unmarshal(rep.payloads[0], &fig); err != nil {
			r.check(false, "fig8 payload: %v", err)
			return
		}
		gto := map[string]float64{}
		for _, c := range counted {
			if c.spec.Sched == "GTO" {
				gto[c.spec.Bench] = c.res.IPC
			}
		}
		for _, c := range counted {
			if c.err != nil {
				r.check(false, "%v", c.err)
				continue
			}
			r.check(!c.res.TimedOut, "fig8 cell %s/%s timed out", c.spec.Bench, c.spec.Sched)
			base, ok := gto[c.spec.Bench]
			if !ok || base == 0 {
				continue
			}
			want := c.res.IPC / base
			got := fig.Normalized[c.spec.Bench][c.spec.Sched]
			r.check(got == want, "fig8 %s/%s: payload normalized IPC %v, count pass %v", c.spec.Bench, c.spec.Sched, got, want)
		}
		return
	}
	byKey := map[string][]byte{}
	for _, rec := range rep.records {
		byKey[rec.Key] = rec.Result
	}
	for _, c := range counted {
		if c.err != nil {
			r.check(false, "%v", c.err)
			continue
		}
		got, ok := byKey[c.spec.Key()]
		r.check(ok && bytes.Equal(got, c.payload), "%s/%s: count-pass CellResult differs from the Execute payload", c.spec.Bench, c.spec.Sched)
	}
}

// sampleCells picks n cells for the untraced run's spot check; Fig 8
// picks whole benchmarks so each has its GTO baseline.
func (b *batchRun) sampleCells(seed uint64, n int) ([]service.Spec, error) {
	all, err := b.cells()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	if !b.def.fig8 {
		rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
		return all[:min(n, len(all))], nil
	}
	suite := workload.Suite()
	bench := suite[rng.Intn(len(suite))].Name
	scheds := harness.Schedulers()
	other := scheds[1+rng.Intn(len(scheds)-1)].Name
	var out []service.Spec
	for _, s := range all {
		if s.Bench == bench && (s.Sched == "GTO" || s.Sched == other) {
			out = append(out, s)
		}
	}
	return out, nil
}

// opLatencies returns each op's normalised latency in ms for the
// repetitions: the whole rep for Fig 8, and for a sweep each cell from
// the moment the engine starts executing it until its record is
// appended. The execute, append and queue times are raw diagnostics.
func (b *batchRun) opLatencies(reps []repResult, spans, probes []span) (ops, exec, appendUS, queue []float64) {
	type cellKey struct {
		rep  int
		cell string
	}
	inRep := map[int]bool{}
	for _, r := range reps {
		inRep[r.id] = true
		if b.def.fig8 {
			norm, _ := normalise(spans[r.id-1], probes)
			ops = append(ops, norm)
		}
	}
	execs := map[cellKey]span{}
	var appends []span
	for _, s := range spans {
		if !inRep[s.Parent] {
			continue
		}
		switch s.Name {
		case "service.execute":
			exec = append(exec, s.ms())
			execs[cellKey{s.Parent, s.Cell}] = s
		case "sweep.append":
			appendUS = append(appendUS, s.ms()*1000)
			appends = append(appends, s)
		}
	}
	for _, a := range appends {
		if e, ok := execs[cellKey{a.Parent, a.Cell}]; ok {
			norm, _ := normalise(span{Start: e.Start, End: a.End}, probes)
			ops = append(ops, norm)
		}
	}
	// CellRecord.Elapsed spans the engine call including the wait for a
	// worker slot; the execute span is the simulation alone.
	for _, r := range reps {
		for _, rec := range r.records {
			if e, ok := execs[cellKey{r.id, cellID(rec.Key)}]; ok {
				queue = append(queue, float64(rec.Elapsed)-e.ms())
			}
		}
	}
	return ops, exec, appendUS, queue
}

// setupBatch prepares the workload and warms it up with one repetition
// at a fifth of the instruction budget, so lazy initialisation and heap
// growth happen before timing.
func setupBatch(def batchDef, seed uint64, workdir string) (*batchRun, error) {
	warm := newBatchRun(def, max(def.instr/5, 1), seed, workdir)
	if _, err := warm.rep(); err != nil {
		return nil, fmt.Errorf("bench: warm-up: %w", err)
	}
	return newBatchRun(def, def.instr, seed, workdir), nil
}

// measureBatch runs timed repetitions for at least seconds (and at
// least three) while a sampler probes the host's speed, then checks
// them and sets the end-to-end metrics.
func measureBatch(r *report, b *batchRun, seconds float64) []repResult {
	var reps []repResult
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	runtime.GC()
	smp := startSampler(b.tr)
	for len(reps) < 3 || time.Now().Before(deadline) {
		cpu0 := cpuTime()
		rep, err := b.rep()
		if err != nil {
			r.op(fmt.Errorf("rep %d: %w", len(reps), err))
			break
		}
		rep.cpu = cpuTime() - cpu0
		reps = append(reps, rep)
		runtime.GC()
	}
	smp.halt()
	if len(reps) == 0 {
		return nil
	}
	checkReps(r, b, reps)

	spans := b.tr.snapshot()
	probes := named(spans, "probe")
	walls := make([]float64, len(reps))
	raw := make([]float64, len(reps))
	cpus := make([]float64, len(reps))
	speeds := make([]float64, len(reps))
	for i, rep := range reps {
		norm, speed := normalise(spans[rep.id-1], probes)
		walls[i], raw[i], cpus[i], speeds[i] = norm/1000, rep.wall.Seconds(), rep.cpu.Seconds(), speed
		fmt.Fprintf(os.Stderr, "%s rep %d: wall %.3fs cpu %.3fs host speed %.3f normalised %.3fs\n",
			b.def.name, i, raw[i], cpus[i], speed, walls[i])
	}
	wall := newDist(walls)
	r.set("wall_s", "s", wall.P50, wall.N)
	r.set("wall_raw_s", "s", newDist(raw).P50, len(raw))
	r.set("rep_cpu_s", "s", newDist(cpus).P50, len(cpus))
	r.set("host.speed", "ratio", newDist(speeds).P50, len(speeds))
	ops, exec, appendUS, queue := b.opLatencies(reps, spans, probes)
	op := newDist(ops)
	setDist(r, "op_%s_ms", "ms", op)
	r.set("miss_p50_ms", "ms", op.P50, op.N) // every batch op simulates
	setDist(r, "service.execute_ms_%s", "ms", newDist(exec))
	if !b.def.fig8 {
		setDist(r, "sweep.append_us_%s", "us", newDist(appendUS))
		setDist(r, "service.queue_wait_ms_%s", "ms", newDist(queue))
	}
	r.set("max_rss_mb", "MB", maxRSSMB(), 1)
	return reps
}

// checkReps counts each op and verifies that every repetition produced
// the same payload digest.
func checkReps(r *report, b *batchRun, reps []repResult) {
	first := reps[0].digest()
	wantCells := len(workload.Suite()) * len(harness.Schedulers())
	for i, rep := range reps {
		if b.def.fig8 {
			var fig fig8Payload
			err := json.Unmarshal(rep.payloads[0], &fig)
			if err == nil && len(fig.Benchmarks)*len(fig.Schedulers) != wantCells {
				err = fmt.Errorf("fig8 payload has %d×%d cells, want %d", len(fig.Benchmarks), len(fig.Schedulers), wantCells)
			}
			r.op(err)
		} else {
			for _, rec := range rep.records {
				r.op(cellOutcome(rec))
			}
		}
		r.check(rep.digest() == first, "rep %d digest %.12s differs from rep 0 %.12s", i, rep.digest(), first)
	}
}

// setDist publishes a distribution's median and, when the sample is
// large enough, its tail; name is a format with one %s for "p50",
// "p95", ...
func setDist(r *report, name, unit string, d dist) {
	if d.N == 0 {
		return
	}
	r.set(fmt.Sprintf(name, "p50"), unit, d.P50, d.N)
	if d.TailP > 50 {
		r.set(fmt.Sprintf(name, fmt.Sprintf("p%g", d.TailP)), unit, d.TailV, d.N)
	}
}
