package service

import (
	"bytes"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// TestEngineAnswersFullLimitCellsFromGTO: where Best-SWL's and
// statPCAL's limit covers every resident warp, the engine answers both
// cells from GTO's simulation, and each payload equals a fresh Execute
// of the requested spec byte for byte. The trio costs one simulation.
func TestEngineAnswersFullLimitCellsFromGTO(t *testing.T) {
	opts := OptionSpec{InstrPerWarp: 300, Seed: 7}
	type trio struct {
		bench  string
		config *harness.Override
	}
	var trios []trio
	for _, w := range workload.Suite() {
		if harness.SimulatedAs(w.Name, "Best-SWL", opts.Options()) == "GTO" {
			trios = append(trios, trio{bench: w.Name})
		}
	}
	if len(trios) != 9 {
		t.Fatalf("%d benchmarks answer Best-SWL from GTO at 48 warps, want 9 (Nwrp 48 in Table II)", len(trios))
	}
	for _, b := range []string{"Backprop", "Lud"} {
		trios = append(trios, trio{bench: b, config: &harness.Override{WarpsPerSM: 32}})
	}

	e := NewEngine(Config{Workers: 2})
	for _, tr := range trios {
		before := e.Simulations()
		for i, sched := range []string{"GTO", "Best-SWL", "statPCAL"} {
			spec := Spec{Experiment: ExpRun, Bench: tr.bench, Sched: sched, Options: opts, Config: tr.config}
			got, src, err := e.Run(spec)
			if err != nil {
				t.Fatalf("%s/%s: %v", tr.bench, sched, err)
			}
			wantSrc := SourceCache
			if i == 0 {
				wantSrc = SourceComputed
			}
			if src != wantSrc {
				t.Errorf("%s/%s: source %s, want %s", tr.bench, sched, src, wantSrc)
			}
			want, err := Execute(spec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s/%s: engine payload differs from Execute:\n got %s\nwant %s", tr.bench, sched, got, want)
			}
		}
		if n := e.Simulations() - before; n != 1 {
			t.Errorf("%s: GTO, Best-SWL and statPCAL cost %d simulations, want 1", tr.bench, n)
		}
	}
}

// recordingRunner fakes simulations, cells as fakeCells does, and
// records the bench and scheduler of each spec the executor ran.
func recordingRunner(mu *sync.Mutex, ran *[]string) RunFunc {
	fake := fakeCells(new(atomic.Int64))
	return func(s Spec) ([]byte, error) {
		mu.Lock()
		*ran = append(*ran, s.Bench+"/"+s.Sched)
		mu.Unlock()
		if s.Experiment != ExpRun {
			return []byte(`{}`), nil
		}
		return fake(s)
	}
}

// TestEngineRunsOtherCellsAsThemselves: cells whose controller can act
// are simulated under their own scheduler, and only "run" specs are
// answered from another cell.
func TestEngineRunsOtherCellsAsThemselves(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	e := NewEngine(Config{Workers: 1, Run: recordingRunner(&mu, &ran)})
	opts := OptionSpec{InstrPerWarp: 300, Seed: 7}
	var want []string
	for _, c := range []struct{ bench, sched string }{
		{"SYRK", "Best-SWL"}, {"SYRK", "statPCAL"}, // Nwrp 6
		{"PVC", "CCWS"}, {"PVC", "CIAO-T"}, {"PVC", "CIAO-P"}, {"PVC", "CIAO-C"},
		{"Backprop", "Best-SWL"}, // Nwrp 36 of 48 warps
	} {
		if _, _, err := e.Run(Spec{Experiment: ExpRun, Bench: c.bench, Sched: c.sched, Options: opts}); err != nil {
			t.Fatal(err)
		}
		want = append(want, c.bench+"/"+c.sched)
	}
	ts := Spec{Experiment: "timeseries", Bench: "PVC", Schedulers: []string{"Best-SWL"}, Options: opts}
	if _, _, err := e.Run(ts); err != nil {
		t.Fatal(err)
	}
	want = append(want, "PVC/")
	if len(ran) != len(want) {
		t.Fatalf("executor ran %v, want %v", ran, want)
	}
	for i := range want {
		if ran[i] != want[i] {
			t.Errorf("executor call %d ran %s, want %s", i, ran[i], want[i])
		}
	}
}

// TestEngineFullLimitCellsShareGTOFlight: Best-SWL and statPCAL
// requests for a kernel their limit covers coalesce on, or hit, the
// one GTO simulation whichever arrives first, and each payload carries
// its own scheduler's name.
func TestEngineFullLimitCellsShareGTOFlight(t *testing.T) {
	var mu sync.Mutex
	var ran []string
	release := make(chan struct{})
	record := recordingRunner(&mu, &ran)
	e := NewEngine(Config{Workers: 4, Run: func(s Spec) ([]byte, error) {
		<-release
		return record(s)
	}})
	scheds := []string{"statPCAL", "Best-SWL", "GTO"}
	payloads := make([][]byte, len(scheds))
	sources := make([]Source, len(scheds))
	var wg sync.WaitGroup
	for i, s := range scheds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			payloads[i], sources[i], err = e.Run(Spec{Experiment: ExpRun, Bench: "NN", Sched: s})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	close(release)
	wg.Wait()
	if len(ran) != 1 || ran[0] != "NN/GTO" {
		t.Fatalf("executor ran %v, want [NN/GTO]", ran)
	}
	computed := 0
	for i, s := range scheds {
		if sources[i] == SourceComputed {
			computed++
		}
		if !bytes.Contains(payloads[i], []byte(`"sched":"`+s+`"`)) {
			t.Errorf("%s payload is labelled otherwise: %s", s, payloads[i])
		}
	}
	if computed != 1 {
		t.Errorf("sources %v, want one computed", sources)
	}
}

// TestEngineFullLimitCellAllocatesOnlyItsPayload: answering a cell from
// GTO's cached run allocates what the GTO cell's own cache hit does,
// plus the relabelled payload.
func TestEngineFullLimitCellAllocatesOnlyItsPayload(t *testing.T) {
	e := NewEngine(Config{Run: fakeCells(new(atomic.Int64))})
	gto := Spec{Experiment: ExpRun, Bench: "NN", Sched: "GTO", Options: OptionSpec{InstrPerWarp: 300, Seed: 7}}
	relabelled := gto
	relabelled.Sched = "statPCAL"
	if _, _, err := e.Run(gto); err != nil {
		t.Fatal(err)
	}
	hit := testing.AllocsPerRun(100, func() { e.Run(gto) })
	if got := testing.AllocsPerRun(100, func() { e.Run(relabelled) }); got != hit+1 {
		t.Errorf("statPCAL cell answered from GTO's cached run: %v allocations, want %v (a GTO hit) + 1", got, hit)
	}
}
