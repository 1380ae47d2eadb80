package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/harness"
)

func TestSpecKeyCanonicalization(t *testing.T) {
	// Fields irrelevant to the experiment must not split cache entries.
	a := Spec{Experiment: ExpFig8, Bench: "SYRK", Sched: "GTO"}
	b := Spec{Experiment: ExpFig8}
	if a.Key() != b.Key() {
		t.Errorf("fig8 keys differ despite irrelevant cell fields")
	}
	// Scheduler order is irrelevant for a time-series trace.
	ts1 := Spec{Experiment: "timeseries", Bench: "SYRK", Schedulers: []string{"GTO", "CCWS"}}
	ts2 := Spec{Experiment: "timeseries", Bench: "SYRK", Schedulers: []string{"CCWS", "GTO"}}
	if ts1.Key() != ts2.Key() {
		t.Errorf("timeseries keys differ despite same scheduler set")
	}
	// Distinct cells must address distinct results.
	c1 := Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "GTO"}
	c2 := Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "CCWS"}
	if c1.Key() == c2.Key() {
		t.Errorf("different schedulers share a key")
	}
	c3 := c1
	c3.Options.InstrPerWarp = 500
	if c1.Key() == c3.Key() {
		t.Errorf("different options share a key")
	}
}

// TestSpecKeyPinned pins Key for specs that exercise each of
// canonical's rules, as computed before the experiment table drove
// them. Sweep records are stored under these keys, so a drift would
// make a restarted sweep re-simulate every cell.
func TestSpecKeyPinned(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		key  string
	}{
		{"run cell with config", Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "CIAO-C",
			Options: OptionSpec{InstrPerWarp: 1500, Seed: 7},
			Config:  &harness.Override{L1SizeKB: 32, CIAOHighEpoch: 1000}},
			"22e274f3fa4046bc6a53ea4b88ea4631f817ac5976f7ce61916a68775e05ce4c"},
		{"run cell with an empty config", Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "GTO",
			Config: &harness.Override{}},
			"5793acff35c610b23b183840a527dbd9b98b95b71213309704925acb0b06f538"},
		{"respelled synthetic bench", Spec{Experiment: ExpRun, Sched: "GTO",
			Bench: "synthetic:seed=42,reuse=8,window=32,apki=120,class=SWS"},
			"823595efeebc0d1beda12486918d91c84356da317ee26b6cb976c7d6a897fb66"},
		{"timeseries with unsorted schedulers and a stray sched", Spec{Experiment: "timeseries",
			Bench: "ATAX", Sched: "GTO", Schedulers: []string{"GTO", "CIAO-C", "CCWS"},
			Options: OptionSpec{InstrPerWarp: 300, SampleInterval: 500}},
			"b11634b398c20e2d36548210818222c2dbd07c41251cdd80eec30405fe328be0"},
		{"fig8 with stray cell fields", Spec{Experiment: ExpFig8, Bench: "SYRK", Sched: "GTO",
			Schedulers: []string{"CCWS"}, Options: OptionSpec{InstrPerWarp: 300, Seed: 7}},
			"a026bb34a642407e6dc82a44d1ad1634963b9548af573b8149988851f0936760"},
		{"fig11a with an empty config", Spec{Experiment: "fig11a", Options: OptionSpec{Seed: 3},
			Config: &harness.Override{}},
			"8977e2c373dd47e7f2d56f065c01c2128b961fad71febb8e3c1bcecf6c2800b8"},
		{"overhead with options", Spec{Experiment: "overhead", Bench: "SYRK",
			Options: OptionSpec{InstrPerWarp: 300, Seed: 7, SampleInterval: 9}},
			"e117e1cf38ea160717e4ac6ce3e77a9b4897057a5ad60df641123582b061885a"},
	}
	for _, c := range cases {
		if got := c.spec.Key(); got != c.key {
			t.Errorf("%s: key %s, want %s", c.name, got, c.key)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "CIAO-C"}, true},
		{Spec{Experiment: ExpRun, Bench: "NOPE", Sched: "CIAO-C"}, false},
		{Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "NOPE"}, false},
		{Spec{Experiment: ExpFig8}, true},
		{Spec{Experiment: "fig99"}, false},
		{Spec{Experiment: "timeseries", Bench: "SYRK"}, false},
		{Spec{Experiment: "timeseries", Bench: "SYRK", Schedulers: []string{"GTO"}}, true},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("Validate(%+v) = %v, want ok=%v", c.spec, err, c.ok)
		}
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := NewResultCache(2)
	c.Put("a", []byte("A"))
	c.Put("b", []byte("B"))
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", []byte("C")) // evicts b
	if _, ok := c.Get("b"); ok {
		t.Error("b should have been evicted")
	}
	if got, ok := c.Get("a"); !ok || string(got) != "A" {
		t.Errorf("a = %q, %v", got, ok)
	}
	s := c.Stats()
	if s.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", s.Evictions)
	}
	if s.Hits != 2 || s.Misses != 1 {
		t.Errorf("hits/misses = %d/%d, want 2/1", s.Hits, s.Misses)
	}
}

func TestResultCacheDisabled(t *testing.T) {
	c := NewResultCache(0)
	c.Put("a", []byte("A"))
	if _, ok := c.Get("a"); ok {
		t.Error("zero-capacity cache stored an entry")
	}
}

// countingRunner fabricates deterministic payloads and counts real
// executions.
func countingRunner(calls *atomic.Int64) RunFunc {
	return func(s Spec) ([]byte, error) {
		calls.Add(1)
		return []byte(fmt.Sprintf(`{"key":%q}`, s.Key())), nil
	}
}

func TestEngineCacheHitReturnsIdenticalBytes(t *testing.T) {
	var calls atomic.Int64
	e := NewEngine(Config{Workers: 2, Run: countingRunner(&calls)})
	spec := Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "CIAO-C"}

	first, src, err := e.Run(spec)
	if err != nil || src != SourceComputed {
		t.Fatalf("first run: src=%q err=%v", src, err)
	}
	second, src, err := e.Run(spec)
	if err != nil || src != SourceCache {
		t.Fatalf("second run: src=%q err=%v, want cache hit", src, err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("cache hit returned different bytes")
	}
	if n := calls.Load(); n != 1 {
		t.Errorf("simulations = %d, want 1 (second request must not re-run)", n)
	}
	if e.Simulations() != 1 {
		t.Errorf("engine counter = %d, want 1", e.Simulations())
	}
}

func TestEngineCoalescesConcurrentIdenticalSpecs(t *testing.T) {
	var calls atomic.Int64
	release := make(chan struct{})
	e := NewEngine(Config{Workers: 4, Run: func(s Spec) ([]byte, error) {
		calls.Add(1)
		<-release // hold every racer in the in-flight window
		return []byte(`{"ok":true}`), nil
	}})
	spec := Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "GTO"}

	const racers = 16
	results := make([][]byte, racers)
	var started, done sync.WaitGroup
	for i := 0; i < racers; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			started.Done()
			payload, _, err := e.Run(spec)
			if err != nil {
				t.Errorf("racer %d: %v", i, err)
			}
			results[i] = payload
		}(i)
	}
	started.Wait()
	close(release)
	done.Wait()

	if n := calls.Load(); n != 1 {
		t.Errorf("simulations = %d, want 1 (identical in-flight specs must coalesce)", n)
	}
	for i := 1; i < racers; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Fatalf("racer %d got different bytes", i)
		}
	}
}

func TestEngineDistinctSpecsRunSeparately(t *testing.T) {
	var calls atomic.Int64
	e := NewEngine(Config{Workers: 2, Run: countingRunner(&calls)})
	if _, _, err := e.Run(Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "GTO"}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Run(Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "CCWS"}); err != nil {
		t.Fatal(err)
	}
	if n := calls.Load(); n != 2 {
		t.Errorf("simulations = %d, want 2", n)
	}
}

func TestEngineRunRejectsBadSpec(t *testing.T) {
	var calls atomic.Int64
	e := NewEngine(Config{Run: countingRunner(&calls)})
	if _, _, err := e.Run(Spec{Experiment: "nope"}); err == nil {
		t.Error("bad spec accepted")
	}
	if _, err := e.Submit(Spec{Experiment: "nope"}); err == nil {
		t.Error("bad spec submitted")
	}
	if calls.Load() != 0 {
		t.Error("runner invoked for invalid spec")
	}
}

func TestEngineErrorsAreNotCached(t *testing.T) {
	var calls atomic.Int64
	fail := true
	e := NewEngine(Config{Workers: 1, Run: func(s Spec) ([]byte, error) {
		calls.Add(1)
		if fail {
			return nil, fmt.Errorf("transient")
		}
		return []byte(`{}`), nil
	}})
	spec := Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "GTO"}
	if _, _, err := e.Run(spec); err == nil {
		t.Fatal("want error")
	}
	fail = false
	if _, src, err := e.Run(spec); err != nil || src != SourceComputed {
		t.Fatalf("retry: src=%q err=%v, want fresh computation", src, err)
	}
	if calls.Load() != 2 {
		t.Errorf("calls = %d, want 2", calls.Load())
	}
}

// fakeCells fakes a "run" simulation with a small CellResult whose
// numbers depend on the cell, and counts the calls.
func fakeCells(calls *atomic.Int64) RunFunc {
	return func(s Spec) ([]byte, error) {
		calls.Add(1)
		if s.Experiment != ExpRun {
			return nil, fmt.Errorf("fake runs cells only, got %q", s.Experiment)
		}
		k := s.Key()
		return json.Marshal(harness.CellResult{Bench: s.Bench, Sched: s.Sched,
			IPC: 1 + float64(k[0]%8)/8, SharedUtil: float64(k[1]%4) / 4})
	}
}

// runWithin fails the test if e.Run(spec) does not return within a
// generous bound, which is how a slot deadlock shows.
func runWithin(t *testing.T, e *Engine, spec Spec) ([]byte, Source) {
	t.Helper()
	type result struct {
		payload []byte
		src     Source
		err     error
	}
	done := make(chan result, 1)
	go func() {
		payload, src, err := e.Run(spec)
		done <- result{payload, src, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("%s: %v", spec.Experiment, r.err)
		}
		return r.payload, r.src
	case <-time.After(30 * time.Second):
		t.Fatalf("%s did not finish: deadlocked on worker slots?", spec.Experiment)
		return nil, ""
	}
}

// TestEngineFigureCells: a matrix figure's cells are ordinary "run"
// specs. On a one-worker engine the figure finishes (it holds no slot
// while its cells wait for one), each distinct simulation costs one
// run, a repeat costs none, and the cells serve /run and other
// figures. Fig 8's Best-SWL and statPCAL cells on the nine benchmarks
// whose Nwrp is all 48 warps are answered from GTO's run.
func TestEngineFigureCells(t *testing.T) {
	var calls atomic.Int64
	e := NewEngine(Config{Workers: 1, Run: fakeCells(&calls)})
	opts := OptionSpec{InstrPerWarp: 300, Seed: 7}
	fig8 := Spec{Experiment: ExpFig8, Options: opts}

	if _, src := runWithin(t, e, fig8); src != SourceComputed {
		t.Errorf("fig8 source = %q, want computed", src)
	}
	if n := e.Simulations(); n != 129 {
		t.Errorf("fig8 simulations = %d, want 129 (7 schedulers x 21 benchmarks, less 2 x 9 answered from GTO)", n)
	}
	if _, src := runWithin(t, e, fig8); src != SourceCache {
		t.Errorf("repeated fig8 source = %q, want cache", src)
	}
	if n := e.Simulations(); n != 129 {
		t.Errorf("repeated fig8 cost %d simulations, want 0", n-129)
	}
	cell := Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "CIAO-C", Options: opts}
	if _, src := runWithin(t, e, cell); src != SourceCache {
		t.Errorf("/run of a fig8 cell: source = %q, want cache", src)
	}
	// Fig 12a's GTO and CIAO-C columns are fig8 cells.
	runWithin(t, e, Spec{Experiment: "fig12a", Options: opts})
	if n := e.Simulations() - 129; n != 26 {
		t.Errorf("fig12a after fig8 cost %d simulations, want 26", n)
	}

	// Fig 11a's default column is its 5000-instruction column.
	e = NewEngine(Config{Workers: 1, Run: fakeCells(&calls)})
	runWithin(t, e, Spec{Experiment: "fig11a", Options: opts})
	if n := e.Simulations(); n != 28 {
		t.Errorf("fig11a simulations = %d, want 28", n)
	}
	if calls.Load() != int64(129+26+28) {
		t.Errorf("executor calls = %d, want %d", calls.Load(), 129+26+28)
	}
}

// TestEngineFigureParallelDeterminism: a figure's payload does not
// depend on how many of its cells run at once.
func TestEngineFigureParallelDeterminism(t *testing.T) {
	var calls atomic.Int64
	for _, exp := range harness.Experiments() {
		if !exp.Grid {
			continue
		}
		spec := Spec{Experiment: exp.Name, Options: OptionSpec{InstrPerWarp: 300}}
		serial, _ := runWithin(t, NewEngine(Config{Workers: 1, Run: fakeCells(&calls)}), spec)
		parallel, _ := runWithin(t, NewEngine(Config{Workers: 4, Run: fakeCells(&calls)}), spec)
		if !bytes.Equal(serial, parallel) {
			t.Errorf("%s: Workers 4 payload differs from Workers 1:\n%s\n%s", exp.Name, parallel, serial)
		}
	}
}

// TestEngineJobRetention pins the bounded-jobs contract: finished
// jobs beyond MaxJobs are evicted oldest-first, so a long-lived
// server cannot leak job records.
func TestEngineJobRetention(t *testing.T) {
	var calls atomic.Int64
	e := NewEngine(Config{Workers: 2, MaxJobs: 3, Run: countingRunner(&calls)})

	var ids []string
	for _, bench := range []string{"SYRK", "KMN", "ATAX", "BICG", "MVT"} {
		j, err := e.Submit(Spec{Experiment: ExpRun, Bench: bench, Sched: "GTO"})
		if err != nil {
			t.Fatal(err)
		}
		// Wait for completion so the next Submit may prune it.
		deadline := time.Now().Add(5 * time.Second)
		for j.Status().State == JobRunning {
			if time.Now().After(deadline) {
				t.Fatal("job never finished")
			}
			time.Sleep(time.Millisecond)
		}
		ids = append(ids, j.id)
	}

	for i, id := range ids {
		_, ok := e.Job(id)
		if wantKept := i >= len(ids)-3; ok != wantKept {
			t.Errorf("job %d (%s): retained=%v, want %v", i, id, ok, wantKept)
		}
	}
}

// TestExecuteRealCellOnce pins the integration path: a real (short)
// simulation flows through Execute and produces valid, cacheable JSON.
func TestExecuteRealCellOnce(t *testing.T) {
	spec := Spec{
		Experiment: ExpRun, Bench: "SYRK", Sched: "GTO",
		Options: OptionSpec{InstrPerWarp: 300},
	}
	payload, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"bench":"SYRK"`)) ||
		!bytes.Contains(payload, []byte(`"ipc":`)) {
		t.Errorf("unexpected payload: %s", payload)
	}
	again, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(payload, again) {
		t.Error("Execute is not deterministic for a fixed spec")
	}
}

// TestOneSetL1CellFinishes runs a cell whose override leaves the L1D a
// single set (1KB, 8 ways). XOR set indexing once looped forever on a
// one-set cache, so such a request pinned an engine worker and a core
// for good. The cell runs in a goroutine under a deadline, so a
// regression fails this test instead of hanging the suite.
func TestOneSetL1CellFinishes(t *testing.T) {
	spec := Spec{
		Experiment: ExpRun, Bench: "SYRK", Sched: "GTO",
		Options: OptionSpec{InstrPerWarp: 300},
		Config:  &harness.Override{L1SizeKB: 1, L1Ways: 8},
	}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := Execute(spec)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("one-set L1 cell did not finish within 20s")
	}
}
