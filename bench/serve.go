package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/workload"
)

// The serve workload's traffic: an open loop at a fixed rate where
// three requests in four repeat a warmed hot set (cache hits) and the
// rest are distinct cells (computed).
const (
	serveRate    = 100 // requests per second
	serveInstr   = 300 // instr_per_warp of every served cell
	serveCache   = 256 // ciaoserve -cache
	mixBlock     = 4   // one request in every mixBlock is a distinct cell
	hotBenches   = 16  // × {GTO, CIAO-C} = a 32-cell hot set
	serveConns   = 2   // client connections
	serveWindow  = 100 // requests between host-speed probes
	checkMisses  = 40  // distinct responses re-executed in-process
	replayPrefix = 400
)

// request is one scheduled /run call.
type request struct {
	Due  time.Duration
	Spec service.Spec
	Body []byte
	Hot  bool
}

// hotSet is the cells the schedule repeats: hotBenches seeded-random
// benchmarks under GTO and CIAO-C, so the pairs also give a CIAO-C over
// GTO ratio.
func hotSet(seed, instr uint64) []service.Spec {
	suite := workload.Suite()
	rng := rand.New(rand.NewSource(int64(seed)))
	rng.Shuffle(len(suite), func(i, j int) { suite[i], suite[j] = suite[j], suite[i] })
	var out []service.Spec
	for _, w := range suite[:hotBenches] {
		for _, s := range []string{"GTO", "CIAO-C"} {
			out = append(out, runSpec(w.Name, s, instr, seed))
		}
	}
	return out
}

func runSpec(bench, sched string, instr, seed uint64) service.Spec {
	return service.Spec{Experiment: service.ExpRun, Bench: bench, Sched: sched,
		Options: service.OptionSpec{InstrPerWarp: instr, Seed: seed}}
}

// schedule generates the open-loop request sequence for seconds of
// traffic. Each block of mixBlock requests holds one distinct cell, at
// a seeded position, so misses never bunch up more than two at a time.
// Distinct cells get a unique simulation seed, so none repeats a hot
// cell or another distinct cell. Their benchmarks and schedulers, which
// set what a cell costs, each cycle through all their values in seeded
// orders, so every seed asks for the same mix of work.
func schedule(seed uint64, rate, seconds float64, instr uint64) []request {
	hot := hotSet(seed, instr)
	rng := rand.New(rand.NewSource(int64(seed) + 1))
	var benches, scheds []string
	for _, w := range workload.Suite() {
		benches = append(benches, w.Name)
	}
	for _, f := range harness.Schedulers() {
		scheds = append(scheds, f.Name)
	}
	nextBench, nextSched := cycler(rng, benches), cycler(rng, scheds)
	n := int(rate * seconds)
	out := make([]request, n)
	distinct := 0
	for i := range out {
		if i%mixBlock == 0 {
			distinct = i + rng.Intn(mixBlock)
		}
		rq := request{Due: time.Duration(float64(i) / rate * float64(time.Second))}
		if i == distinct {
			rq.Spec = runSpec(nextBench(), nextSched(), instr, seed<<20+uint64(i)+1)
		} else {
			rq.Spec, rq.Hot = hot[rng.Intn(len(hot))], true
		}
		body, err := json.Marshal(rq.Spec)
		if err != nil {
			panic(err) // Spec is plain data
		}
		rq.Body = body
		out[i] = rq
	}
	return out
}

// cycler returns successive values of vals, reshuffled by rng at the
// start of every pass, so each pass yields every value once.
func cycler(rng *rand.Rand, vals []string) func() string {
	var pass []string
	return func() string {
		if len(pass) == 0 {
			pass = append(pass, vals...)
			rng.Shuffle(len(pass), func(i, j int) { pass[i], pass[j] = pass[j], pass[i] })
		}
		v := pass[0]
		pass = pass[1:]
		return v
	}
}

// outcome is what one request saw. Late and Latency count from the
// request's due time; Speed is the host speed around its window.
type outcome struct {
	Late, Latency time.Duration
	Speed         float64
	Cache         string
	Body          []byte // kept only when asked for
	Err           error
}

func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns, DisableCompression: true},
		Timeout:   time.Minute,
	}
}

// post sends one /run request and returns its X-Cache value and body.
func post(client *http.Client, url string, body []byte) (string, []byte, error) {
	resp, err := client.Post(url+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return resp.Header.Get("X-Cache"), b, nil
}

// windowedLoop runs the schedule as an open loop in windows of
// serveWindow requests. Between windows, with no request in flight, it
// probes the host's speed, and gives every request of a window the mean
// of the speeds measured before and after it. (A sampler would delay
// the sends it shares the benchmark's one thread with.)
func windowedLoop(client *http.Client, url string, reqs []request, keep func(int) bool) []outcome {
	var out []outcome
	before := settledSpeed()
	for lo := 0; lo < len(reqs); lo += serveWindow {
		hi := min(lo+serveWindow, len(reqs))
		win := openLoop(client, url, reqs[lo:hi], func(i int) bool { return keep(lo + i) })
		after := settledSpeed()
		for i := range win {
			win[i].Speed = (before + after) / 2
		}
		before = after
		out = append(out, win...)
	}
	return out
}

// openLoop sends every request at its due time, counted from the first
// request's, whether or not earlier ones have finished, and waits for
// all of them.
func openLoop(client *http.Client, url string, reqs []request, keep func(int) bool) []outcome {
	out := make([]outcome, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, rq := range reqs {
		due := start.Add(rq.Due - reqs[0].Due)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, rq request, due time.Time) {
			defer wg.Done()
			sent := time.Now()
			cache, body, err := post(client, url, rq.Body)
			o := outcome{Late: sent.Sub(due), Latency: time.Since(due), Cache: cache, Err: err}
			if keep(i) {
				o.Body = body
			}
			out[i] = o
		}(i, rq, due)
	}
	wg.Wait()
	return out
}

// warmHot computes the hot set on the server, serveConns at a time.
func warmHot(client *http.Client, url string, hot []service.Spec) error {
	errs := make([]error, len(hot))
	parallel(serveConns, len(hot), func(i int) {
		body, err := json.Marshal(hot[i])
		if err == nil {
			_, _, err = post(client, url, body)
		}
		if err != nil {
			errs[i] = fmt.Errorf("warm %s/%s: %w", hot[i].Bench, hot[i].Sched, err)
		}
	})
	return errors.Join(errs...)
}

// server is one ciaoserve process on a free loopback port.
type server struct {
	cmd    *exec.Cmd
	exited chan struct{} // closed once cmd.Wait returned
	url    string
	dir    string
}

// startServer execs ciaoserve and waits until /healthz answers.
func startServer(bin, tmp string) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := ln.Addr().String()
	ln.Close()
	dir, err := os.MkdirTemp(tmp, "serve-")
	if err != nil {
		return nil, err
	}
	// The server's per-request access log goes to /dev/null (nil Stderr).
	cmd := exec.Command(bin, "-addr", addr, "-workers", strconv.Itoa(engineWorkers),
		"-cache", strconv.Itoa(serveCache), "-sweepdir", dir, "-no-recover")
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(serverProcs))
	// Should the benchmark die before stop, the kernel kills the server.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("bench: start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), url: "http://" + addr, dir: dir}
	go func() {
		cmd.Wait() // the exit status is irrelevant: stop kills it
		close(s.exited)
	}()
	client := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		select {
		case <-s.exited:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("bench: %s exited during start-up", bin)
		default:
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
	}
	s.stop()
	return nil, fmt.Errorf("bench: %s did not answer /healthz within 30s", bin)
}

// stop kills the server, waits for it to exit and removes its files.
func (s *server) stop() {
	s.cmd.Process.Kill()
	<-s.exited
	os.RemoveAll(s.dir)
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("bench: no VmHWM for server pid %d", s.cmd.Process.Pid)
}

// serverMetrics is the part of ciaoserve's JSON /metrics the report
// reads.
type serverMetrics struct {
	Cache struct {
		Hits   uint64 `json:"hits"`
		Misses uint64 `json:"misses"`
	} `json:"cache"`
	Simulations uint64 `json:"simulations"`
	HTTP        map[string]struct {
		Shed  uint64  `json:"shed"`
		P50MS float64 `json:"p50_ms"`
		P95MS float64 `json:"p95_ms"`
	} `json:"http"`
}

func (s *server) metrics(client *http.Client) (serverMetrics, error) {
	var m serverMetrics
	resp, err := client.Get(s.url + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	return m, json.NewDecoder(resp.Body).Decode(&m)
}

// setupServer starts a server and warms its hot set, returning the
// normalised set-up time.
func setupServer(cfg config, client *http.Client, hot []service.Spec) (*server, float64, error) {
	start := time.Now()
	s, err := startServer(cfg.server, cfg.tmpDir())
	if err != nil {
		return nil, 0, err
	}
	if err := warmHot(client, s.url, hot); err != nil {
		s.stop()
		return nil, 0, err
	}
	return s, time.Since(start).Seconds() * settledSpeed(), nil
}

// runServe measures the open loop against a real ciaoserve, or in a
// traced run replays the mix in-process (see traceServe).
func runServe(cfg config) (*report, error) {
	r := newReport("serve")
	if cfg.trace {
		return r, traceServe(r, cfg)
	}
	client := newClient()
	defer client.CloseIdleConnections()
	hot := hotSet(cfg.seed, serveInstr)
	reqs := schedule(cfg.seed, serveRate, cfg.seconds, serveInstr)

	// Set up coldSetups times, each a fresh server process; the last one
	// serves the measured traffic.
	var setups []float64
	var srv *server
	for len(setups) < coldSetups {
		s, t, err := setupServer(cfg, client, hot)
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
		if cfg.setupOnly || len(setups) == coldSetups {
			srv = s
			break
		}
		client.CloseIdleConnections()
		s.stop()
	}
	defer srv.stop()
	sd := newDist(setups)
	r.set("setup_s", "s", sd.P50, sd.N)
	if cfg.setupOnly {
		return r, nil
	}

	keep := sampledResponses(reqs)
	outs := windowedLoop(client, srv.url, reqs, func(i int) bool { return keep[i] })
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.set("max_rss_mb", "MB", rss, 1)
	m, err := srv.metrics(client)
	if err != nil {
		return nil, fmt.Errorf("bench: /metrics: %w", err)
	}
	serveMetrics(r, reqs, outs)
	if run, ok := m.HTTP["/run"]; ok {
		r.set("httpx.run_p50_ms", "ms", run.P50MS, int(m.Cache.Hits+m.Cache.Misses))
		r.set("httpx.run_p95_ms", "ms", run.P95MS, int(m.Cache.Hits+m.Cache.Misses))
		r.set("httpx.shed", "count", float64(run.Shed), len(reqs))
	}
	r.set("service.cache_hit_ratio", "frac", ratio(float64(m.Cache.Hits), float64(m.Cache.Hits+m.Cache.Misses)), int(m.Cache.Hits+m.Cache.Misses))
	r.set("service.simulations", "count", float64(m.Simulations), 1)
	checkServe(r, reqs, outs, keep)
	return r, nil
}

// sampledResponses marks the responses compared byte for byte with an
// in-process service.Execute: the first request of every hot cell and
// checkMisses evenly spaced distinct cells.
func sampledResponses(reqs []request) map[int]bool {
	keep := map[int]bool{}
	seenHot := map[string]bool{}
	distinct := 0
	for _, rq := range reqs {
		if !rq.Hot {
			distinct++
		}
	}
	step := max(1, distinct/checkMisses)
	j := 0
	for i, rq := range reqs {
		if rq.Hot {
			if !seenHot[string(rq.Body)] {
				seenHot[string(rq.Body)] = true
				keep[i] = true
			}
			continue
		}
		if j%step == 0 {
			keep[i] = true
		}
		j++
	}
	return keep
}

// serveMetrics derives the latency metrics of an open-loop run.
// Latencies are normalised by their window's host speed; the window
// wall times and the generator's lateness are raw.
func serveMetrics(r *report, reqs []request, outs []outcome) {
	var all, hits, misses, late []float64
	windowEnd := map[int]time.Duration{}
	for i, o := range outs {
		if o.Err != nil {
			continue
		}
		lat := ms(o.Latency) * o.Speed
		all = append(all, lat)
		if reqs[i].Hot {
			hits = append(hits, lat)
		} else {
			misses = append(misses, lat)
		}
		late = append(late, ms(o.Late))
		w := i / serveWindow
		windowEnd[w] = max(windowEnd[w], reqs[i].Due+o.Latency)
	}
	// A window's wall time runs from its first request's due time to
	// its last response, so a growing backlog lengthens it.
	var walls, speeds []float64
	for w, end := range windowEnd {
		walls = append(walls, (end - reqs[w*serveWindow].Due).Seconds())
		speeds = append(speeds, outs[w*serveWindow].Speed)
	}
	wd := newDist(walls)
	r.set("wall_s", "s", wd.P50, wd.N)
	r.set("host.speed", "ratio", newDist(speeds).P50, len(speeds))
	setDist(r, "op_%s_ms", "ms", newDist(all))
	setDist(r, "miss_%s_ms", "ms", newDist(misses))
	setDist(r, "hit_%s_ms", "ms", newDist(hits))
	setDist(r, "gen.late_%s_ms", "ms", newDist(late))
}

// checkServe counts every request and checks the cache tallies and the
// sampled responses.
func checkServe(r *report, reqs []request, outs []outcome, keep map[int]bool) {
	wantHits, gotHits, wantComputed, gotComputed, coalesced := 0, 0, 0, 0, 0
	for i, o := range outs {
		r.op(o.Err)
		if reqs[i].Hot {
			wantHits++
		} else {
			wantComputed++
		}
		switch service.Source(o.Cache) {
		case service.SourceCache:
			gotHits++
		case service.SourceComputed:
			gotComputed++
		case service.SourceCoalesced:
			coalesced++
		}
	}
	r.set("service.coalesced", "count", float64(coalesced), len(outs))
	r.check(gotHits == wantHits && gotComputed == wantComputed,
		"X-Cache tallies: %d cache / %d computed / %d coalesced, want %d / %d / 0",
		gotHits, gotComputed, coalesced, wantHits, wantComputed)

	var idx []int
	for i := range reqs {
		if keep[i] && outs[i].Err == nil {
			idx = append(idx, i)
		}
	}
	want := executeAll(reqs, idx)
	for k, i := range idx {
		r.check(bytes.Equal(outs[i].Body, want[k]), "response %d (%s/%s) differs from in-process Execute",
			i, reqs[i].Spec.Bench, reqs[i].Spec.Sched)
	}
}

// executeAll runs service.Execute for the requests at idx on
// engineWorkers goroutines; a failed call yields a nil payload.
func executeAll(reqs []request, idx []int) [][]byte {
	out := make([][]byte, len(idx))
	parallel(engineWorkers, len(idx), func(k int) { out[k], _ = service.Execute(reqs[idx[k]].Spec) })
	return out
}

// traceServe attributes the serve mix's host time. ciaoserve exposes no
// profile, so the first replayPrefix requests of the schedule are
// replayed closed-loop through service.NewHandler in this process, each
// time against a fresh engine with the hot set computed beforehand. The count pass covers the
// replayed cells and the hot set.
func traceServe(r *report, cfg config) error {
	reqs := schedule(cfg.seed, serveRate, cfg.seconds, serveInstr)
	reqs = reqs[:min(len(reqs), replayPrefix)]
	hot := hotSet(cfg.seed, serveInstr)
	tr := newTracer()

	// replay's wall time covers the requests only; the hot set is
	// computed first, inside the rep span.
	replay := func() (int, time.Duration, []outcome, error) {
		rep := tr.begin("rep", "", 0)
		defer tr.end(rep)
		eng := service.NewEngine(service.Config{Workers: engineWorkers, Run: tracedExecute(tr, rep)})
		for _, s := range hot {
			if _, _, err := eng.Run(s); err != nil {
				return 0, 0, nil, err
			}
		}
		ts := httptest.NewServer(service.NewHandler(eng))
		defer ts.Close()
		client := newClient()
		defer client.CloseIdleConnections()
		start := time.Now()
		outs := closedLoop(client, ts.URL, reqs, tr, rep)
		return rep, time.Since(start), outs, nil
	}
	// A traced replay between two untraced ones.
	var (
		prof  bytes.Buffer
		rep   int
		walls [3]time.Duration
		runs  [3][]outcome
	)
	for i := range walls {
		runtime.GC()
		if i == 1 {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return err
			}
		}
		id, wall, outs, err := replay()
		if i == 1 {
			pprof.StopCPUProfile()
			rep = id
		}
		if err != nil {
			return err
		}
		walls[i], runs[i] = wall, outs
	}
	plain := (walls[0] + walls[2]).Seconds() / 2
	r.set("trace.overhead_frac", "frac", walls[1].Seconds()/plain-1, 3)

	specs := append([]service.Spec(nil), hot...)
	seen := map[string]bool{}
	for _, s := range hot {
		seen[s.Key()] = true
	}
	for _, rq := range reqs {
		if k := rq.Spec.Key(); !seen[k] {
			seen[k] = true
			specs = append(specs, rq.Spec)
		}
	}
	cs := countPass(specs, engineWorkers)
	setCountMetrics(r, cs)
	payloads := map[string][]byte{}
	for _, c := range cs.cells {
		if c.err != nil {
			r.check(false, "%v", c.err)
			continue
		}
		payloads[c.spec.Key()] = c.payload
	}
	for _, run := range runs {
		for i, o := range run {
			r.op(o.Err)
			want := service.SourceComputed
			if reqs[i].Hot {
				want = service.SourceCache
			}
			r.check(o.Err != nil || (service.Source(o.Cache) == want && bytes.Equal(o.Body, payloads[reqs[i].Spec.Key()])),
				"replayed response %d (%s/%s, X-Cache %s) differs from the count pass", i, reqs[i].Spec.Bench, reqs[i].Spec.Sched, o.Cache)
		}
	}
	return finishTrace(r, cfg, tr, rep, prof.Bytes())
}

// closedLoop sends the requests in order from serveConns clients, each
// waiting for its reply before taking the next request; every request
// is a span under rep.
func closedLoop(client *http.Client, url string, reqs []request, tr *tracer, rep int) []outcome {
	out := make([]outcome, len(reqs))
	parallel(serveConns, len(reqs), func(i int) {
		id := tr.begin("http.request", cellID(reqs[i].Spec.Key()), rep)
		start := time.Now()
		cache, body, err := post(client, url, reqs[i].Body)
		out[i] = outcome{Latency: time.Since(start), Cache: cache, Body: body, Err: err}
		tr.end(id)
	})
	return out
}
