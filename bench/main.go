// Command bench is the repository's benchmark: it measures the CIAO
// simulator and its service end to end on four workloads (a Fig 8
// regeneration, a memory-bound and a compute-bound sweep, and open-loop
// /run traffic against a real ciaoserve) and, in a traced run, layer by
// layer. Every time it publishes is normalised by a host-speed probe
// (hostspeed.go). See README.md for the workloads, metrics and how to
// read them.
//
// Run from the repository root (bench/run.sh builds it first):
//
//	bench --workload fig8 --seed 7 --seconds 20 --trace 0
//	bench                       # every workload, untraced then traced
//	bench --stability 5         # two alternating sets of 5 runs each
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"time"
)

// processStart is as close to exec as the program can observe; set-up
// time is measured from here.
var processStart = time.Now()

const (
	// maxProcs is the benchmark's GOMAXPROCS. One simulating thread
	// leaves the two-core reference host's other core to everything
	// else, so other processes do not take turns with the timed work.
	maxProcs = 1
	// engineWorkers is the engine pool size of every workload and of
	// the server.
	engineWorkers = 1
	// serverProcs is ciaoserve's GOMAXPROCS: its engine worker simulates
	// on one, and cache hits are answered on the other without waiting
	// for the simulation to be preempted.
	serverProcs = 2
	// coldSetups is how many fresh processes set-up time is the median of.
	coldSetups = 3
)

var workloads = []string{"fig8", "sweep-mem", "sweep-compute", "serve"}

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	traceOut  string
	workdir   string
	server    string
	setupOnly bool
}

// tmpDir holds the run's temporary stores and server directories.
func (c config) tmpDir() string { return filepath.Join(c.workdir, "tmp") }

func main() {
	runtime.GOMAXPROCS(min(maxProcs, runtime.NumCPU()))
	var (
		cfg       config
		traceFlag int
		stability int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+fmt.Sprint(workloads)+" (empty = all, each in a child process, untraced then traced)")
	flag.Uint64Var(&cfg.seed, "seed", 7, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed part of a run lasts")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run: per-layer metrics, CPU profile and spans instead of end-to-end metrics")
	flag.StringVar(&cfg.traceOut, "trace-out", "", "where a traced run writes its spans and profile attribution (default <workdir>/trace-<workload>.json)")
	flag.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for builds, temporary stores and traces")
	flag.StringVar(&cfg.server, "server", "", "ciaoserve binary for the serve workload (default <workdir>/ciaoserve)")
	flag.BoolVar(&cfg.setupOnly, "setup-only", false, "set the workload up, print its set-up time and exit (used for cold set-up samples)")
	flag.IntVar(&stability, "stability", 0, "run two alternating sets of N runs per workload and print their medians and quartiles")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fatal(fmt.Errorf("bench: --trace must be 0 or 1"))
	}
	if cfg.server == "" {
		cfg.server = filepath.Join(cfg.workdir, "ciaoserve")
	}
	if cfg.traceOut == "" && cfg.workload != "" {
		cfg.traceOut = filepath.Join(cfg.workdir, "trace-"+cfg.workload+".json")
	}
	if err := os.MkdirAll(cfg.tmpDir(), 0o755); err != nil {
		fatal(err)
	}

	switch {
	case stability > 0:
		fatal(runStability(cfg, stability))
	case cfg.workload == "":
		fatal(runAll(cfg))
	default:
		fatal(runOne(cfg))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// errChecksFailed makes the process exit non-zero after it printed its
// result line.
var errChecksFailed = errors.New("bench: correctness checks failed")

// runOne runs one workload in this process and prints its result.
func runOne(cfg config) error {
	known := false
	for _, w := range workloads {
		known = known || w == cfg.workload
	}
	if !known {
		return fmt.Errorf("bench: unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	var (
		r   *report
		err error
	)
	if cfg.workload == "serve" {
		r, err = runServe(cfg)
	} else {
		def, _ := findBatch(cfg.workload)
		r, err = runBatch(def, cfg)
	}
	if err != nil {
		return err
	}
	if cfg.setupOnly {
		fmt.Printf("{\"setup_s\": %v}\n", r.Metrics["setup_s"].Value)
		return nil
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	pub, err := r.published(defs)
	if err != nil {
		return err
	}
	for _, l := range r.lines() {
		fmt.Println(l)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(os.Stderr, "FAILED:", p)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for name, s := range pub {
		out.Metrics[name] = value{s.Value, s.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if r.Failed > 0 {
		return errChecksFailed
	}
	return nil
}

// runBatch sets a batch workload up, then either measures it end to end
// or runs its traced pass.
func runBatch(def batchDef, cfg config) (*report, error) {
	r := newReport(def.name)
	b, err := setupBatch(def, cfg.seed, cfg.tmpDir())
	if err != nil {
		return nil, err
	}
	own := time.Since(processStart).Seconds() * settledSpeed()
	if cfg.setupOnly {
		r.set("setup_s", "s", own, 1)
		return r, nil
	}
	if cfg.trace {
		return r, traceBatch(r, b, cfg)
	}
	setups, err := coldSetupSamples(cfg, own)
	if err != nil {
		return nil, err
	}
	r.set("setup_s", "s", setups.P50, setups.N)

	reps := measureBatch(r, b, cfg.seconds)
	if len(reps) == 0 {
		return r, nil
	}
	sample, err := b.sampleCells(cfg.seed, 3)
	if err != nil {
		return nil, err
	}
	b.checkAgainstCount(r, reps[0], countPass(sample, engineWorkers).cells)
	if def.fig8 {
		setFig8Ratios(r, reps[0].payloads[0])
	}
	return r, nil
}

// setFig8Ratios reports Fig 8's overall geomean of each scheduler over
// GTO as diagnostics.
func setFig8Ratios(r *report, payload []byte) {
	var fig fig8Payload
	if json.Unmarshal(payload, &fig) != nil {
		return
	}
	for _, s := range fig.Schedulers {
		if s != "GTO" {
			r.set("fig8."+s+"_over_gto", "ratio", fig.Overall[s], len(fig.Benchmarks))
		}
	}
}

// coldSetupSamples measures set-up in fresh processes, each a child
// started with --setup-only, and returns them with this process's own.
func coldSetupSamples(cfg config, own float64) (dist, error) {
	vals := []float64{own}
	for len(vals) < coldSetups {
		args := []string{"--workload", cfg.workload, "--seed", strconv.FormatUint(cfg.seed, 10),
			"--workdir", cfg.workdir, "--server", cfg.server, "--setup-only"}
		var res struct {
			Setup float64 `json:"setup_s"`
		}
		last, err := runChild(args, nil)
		if err == nil {
			err = json.Unmarshal(last, &res)
		}
		if err != nil {
			return dist{}, fmt.Errorf("bench: cold set-up: %w", err)
		}
		vals = append(vals, res.Setup)
	}
	return newDist(vals), nil
}

// runChild runs this binary with args, copying every output line but
// the last to echo (when non-nil), and returns the last line.
func runChild(args []string, echo *os.File) ([]byte, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	var lines [][]byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		lines = append(lines, append([]byte(nil), sc.Bytes()...))
	}
	if echo != nil {
		for _, l := range lines[:max(len(lines)-1, 0)] {
			fmt.Fprintln(echo, string(l))
		}
	}
	if len(lines) == 0 {
		if runErr == nil {
			runErr = errors.New("no output")
		}
		return nil, fmt.Errorf("%v: %w", args, runErr)
	}
	return lines[len(lines)-1], runErr
}

// traceBatch runs a traced repetition between two untraced ones, then
// the count pass, and reports the per-layer metrics.
func traceBatch(r *report, b *batchRun, cfg config) error {
	var reps []repResult
	var prof bytes.Buffer
	for i := 0; i < 3; i++ {
		runtime.GC()
		if i == 1 {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
		}
		rep, err := b.rep()
		if i == 1 {
			pprof.StopCPUProfile()
		}
		if err != nil {
			return err
		}
		reps = append(reps, rep)
	}
	checkReps(r, b, reps)
	traced := reps[1]
	plain := (reps[0].wall + reps[2].wall).Seconds() / 2
	r.set("trace.overhead_frac", "frac", traced.wall.Seconds()/plain-1, 3)

	cells, err := b.cells()
	if err != nil {
		return err
	}
	cs := countPass(cells, engineWorkers)
	setCountMetrics(r, cs)
	b.checkAgainstCount(r, traced, cs.cells)
	return finishTrace(r, cfg, b.tr, traced.id, prof.Bytes())
}

// finishTrace derives the span and profile metrics of the traced
// repetition rooted at span rep, prints each span name's self time and
// writes the trace file.
func finishTrace(r *report, cfg config, tr *tracer, rep int, prof []byte) error {
	all := tr.snapshot()
	var spans []span
	var exec []float64
	for _, s := range all {
		if s.ID == rep || s.Parent == rep {
			spans = append(spans, s)
			if s.Name == "service.execute" {
				exec = append(exec, s.ms())
			}
		}
	}
	d := newDist(exec)
	r.set("service.execute_ms_p50", "ms", d.P50, d.N)
	r.set("service.execute_ms_p95", "ms", d.at(95), d.N)

	byLayer, total, err := attributeProfile(prof)
	if err != nil {
		return err
	}
	named := total - byLayer["other"]
	for _, l := range layers {
		r.set(l+".cpu_share", "frac", ratio(float64(byLayer[l]), float64(total)), int(total))
	}
	r.set("trace.named_frac", "frac", ratio(float64(named), float64(total)), int(total))

	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("self-time %-20s %10.3f ms\n", n, self[n])
	}

	out := struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		Samples  int64              `json:"cpu_samples"`
		Layers   map[string]int64   `json:"cpu_samples_by_layer"`
		SelfMS   map[string]float64 `json:"self_ms"`
		Metrics  map[string]sample  `json:"metrics"`
		Spans    []span             `json:"spans"`
	}{r.Workload, cfg.seed, total, byLayer, self, r.Metrics, spans}
	b, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.traceOut, b, 0o644); err != nil {
		return fmt.Errorf("bench: write trace: %w", err)
	}
	fmt.Printf("trace written to %s\n", cfg.traceOut)
	return nil
}

// runAll runs every workload in its own child process, untraced and
// then traced, echoing their metric lines; the last line maps each
// workload to its two result objects.
func runAll(cfg config) error {
	all := map[string]map[string]json.RawMessage{}
	failed := false
	for _, w := range workloads {
		all[w] = map[string]json.RawMessage{}
		for _, trace := range []string{"0", "1"} {
			args := []string{"--workload", w, "--seed", strconv.FormatUint(cfg.seed, 10),
				"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", trace,
				"--workdir", cfg.workdir, "--server", cfg.server}
			last, err := runChild(args, os.Stdout)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s trace=%s: %v\n", w, trace, err)
				failed = true
			}
			if json.Valid(last) {
				all[w]["trace"+trace] = last
			}
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if failed {
		return errChecksFailed
	}
	return nil
}
