package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBatchWorkloadsSmoke runs the Fig 8 and sweep paths end to end at
// a tiny instruction budget: timed repetitions with their checks, then
// the traced pass, and requires every published metric of both modes.
func TestBatchWorkloadsSmoke(t *testing.T) {
	for _, name := range []string{"fig8", "sweep-mem"} {
		t.Run(name, func(t *testing.T) {
			def, ok := findBatch(name)
			if !ok {
				t.Fatalf("no batch workload %s", name)
			}
			dir := t.TempDir()
			b := newBatchRun(def, 60, 7, dir)

			r := newReport(name)
			r.set("setup_s", "s", 0.1, 1) // measured in separate processes
			reps := measureBatch(r, b, 0)
			if len(reps) != 3 {
				t.Fatalf("%d repetitions, want the minimum of 3", len(reps))
			}
			if _, err := r.published(endToEnd); err != nil {
				t.Fatal(err)
			}
			sample, err := b.sampleCells(7, 3)
			if err != nil {
				t.Fatal(err)
			}
			b.checkAgainstCount(r, reps[0], countPass(sample, engineWorkers).cells)

			cfg := config{seed: 7, traceOut: filepath.Join(dir, "trace.json")}
			traced := newReport(name)
			if err := traceBatch(traced, b, cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := traced.published(perLayer); err != nil {
				t.Fatal(err)
			}
			for _, rep := range []*report{r, traced} {
				if rep.Failed != 0 {
					t.Fatalf("%d of %d checks failed: %v", rep.Failed, rep.Attempted, rep.Problems)
				}
			}
			if s := traced.Metrics["sm.issue_frac"].Value + traced.Metrics["sm.struct_stall_frac"].Value +
				traced.Metrics["sm.idle_frac"].Value; s < 0.999999 || s > 1.000001 {
				t.Fatalf("cycle fractions sum to %v, want 1", s)
			}
			raw, err := os.ReadFile(cfg.traceOut)
			if err != nil {
				t.Fatal(err)
			}
			var tf struct {
				Spans  []span             `json:"spans"`
				SelfMS map[string]float64 `json:"self_ms"`
			}
			if err := json.Unmarshal(raw, &tf); err != nil {
				t.Fatal(err)
			}
			if len(tf.Spans) < 2 || tf.SelfMS["service.execute"] <= 0 {
				t.Fatalf("trace file has %d spans, self times %v", len(tf.Spans), tf.SelfMS)
			}
		})
	}
}

// TestBatchChecksCatchMismatch feeds the checks a repetition whose
// payload does not match the count pass.
func TestBatchChecksCatchMismatch(t *testing.T) {
	def, _ := findBatch("sweep-compute")
	b := newBatchRun(def, 60, 7, t.TempDir())
	rep, err := b.rep()
	if err != nil {
		t.Fatal(err)
	}
	sample, err := b.sampleCells(7, 2)
	if err != nil {
		t.Fatal(err)
	}
	counted := countPass(sample, engineWorkers).cells
	counted[0].payload = append([]byte(nil), counted[0].payload...)
	counted[0].payload[len(counted[0].payload)-2] ^= 1
	r := newReport(def.name)
	b.checkAgainstCount(r, rep, counted)
	if r.Failed != 1 || r.Attempted != 2 {
		t.Fatalf("failed %d of %d checks, want 1 of 2", r.Failed, r.Attempted)
	}
}
