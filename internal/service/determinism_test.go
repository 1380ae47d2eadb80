package service

import (
	"bytes"
	"testing"

	"repro/internal/harness"
	"repro/internal/workload"
)

// TestDeterministicMemoryStream guards the content-addressed cache's
// core assumption: the same benchmark + seed generates an identical
// instruction and memory-reference stream every time.
func TestDeterministicMemoryStream(t *testing.T) {
	spec, err := workload.ByName("KMN")
	if err != nil {
		t.Fatal(err)
	}
	spec.InstrPerWarp = 1000
	spec.Seed = 12345
	for _, warp := range []int{0, 5, 47} {
		a := workload.NewWarpStream(spec, warp)
		b := workload.NewWarpStream(spec, warp)
		for i := 0; ; {
			var ba, bb [16]workload.Instruction
			na, nb := a.Fill(ba[:]), b.Fill(bb[:])
			if na != nb {
				t.Fatalf("warp %d: streams diverge in length at %d", warp, i+min(na, nb))
			}
			if na == 0 {
				break
			}
			for j := range ba[:na] {
				if ba[j] != bb[j] {
					t.Fatalf("warp %d instr %d: %+v != %+v", warp, i+j, ba[j], bb[j])
				}
			}
			i += na
		}
	}
}

// TestDeterministicCellResult runs the same cell twice through the
// pure executor and demands byte-identical JSON — the property that
// makes cached payloads interchangeable with fresh simulations.
func TestDeterministicCellResult(t *testing.T) {
	specs := []Spec{
		{Experiment: ExpRun, Bench: "SYRK", Sched: "CIAO-C",
			Options: OptionSpec{InstrPerWarp: 800, Seed: 7}},
		{Experiment: ExpRun, Bench: "ATAX", Sched: "GTO",
			Options: OptionSpec{InstrPerWarp: 800, Seed: 7},
			Config:  &harness.Override{L1SizeKB: 32, L1Ways: 8}},
	}
	for _, spec := range specs {
		first, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Execute(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Errorf("%s/%s: runs differ:\n%s\n%s", spec.Bench, spec.Sched, first, second)
		}
	}
}

// TestSyntheticCellDeterminism: a synthetic descriptor is as
// cacheable as a Table II kernel — same descriptor ⇒ byte-identical
// CellResult JSON, and descriptor spellings share one content address
// while materially different descriptors do not.
func TestSyntheticCellDeterminism(t *testing.T) {
	spec := Spec{Experiment: ExpRun,
		Bench: "synthetic:class=SWS,apki=90,window=24,reuse=6,div_pct=20,seed=11",
		Sched: "CIAO-C", Options: OptionSpec{InstrPerWarp: 800}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	first, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("synthetic cell runs differ:\n%s\n%s", first, second)
	}

	respelled := spec
	respelled.Bench = "synthetic:seed=11,div_pct=20,reuse=6,window=24,apki=90,class=SWS"
	if spec.Key() != respelled.Key() {
		t.Error("descriptor spellings of the same workload got different keys")
	}
	other := spec
	other.Bench = "synthetic:class=SWS,apki=90,window=24,reuse=6,div_pct=20,seed=12"
	if spec.Key() == other.Key() {
		t.Error("different synthetic seeds share a key")
	}
	bad := spec
	bad.Bench = "synthetic:apki=0"
	if err := bad.Validate(); err == nil {
		t.Error("invalid descriptor accepted by Validate")
	}
}

// TestConfigOverrideAddressing: overrides are part of the cell's
// content address (different machine, different key), while a
// present-but-empty override is the baseline machine (same key).
func TestConfigOverrideAddressing(t *testing.T) {
	base := Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "GTO"}
	withCfg := base
	withCfg.Config = &harness.Override{L1SizeKB: 32}
	if base.Key() == withCfg.Key() {
		t.Error("config override did not change the spec key")
	}
	empty := base
	empty.Config = &harness.Override{}
	if base.Key() != empty.Key() {
		t.Error("empty override changed the spec key")
	}
	if err := withCfg.Validate(); err != nil {
		t.Errorf("valid override rejected: %v", err)
	}
	bad := base
	bad.Config = &harness.Override{L1SizeKB: 17}
	if err := bad.Validate(); err == nil {
		t.Error("impossible L1 geometry accepted")
	}
	fig := Spec{Experiment: ExpFig8, Config: &harness.Override{L1SizeKB: 32}}
	if err := fig.Validate(); err == nil {
		t.Error("config override on a figure experiment accepted")
	}
}

// TestConfigOverrideChangesResult: the override must actually reach
// the machine — a 4× larger L1 cannot leave the hit rate untouched on
// a cache-sensitive benchmark.
func TestConfigOverrideChangesResult(t *testing.T) {
	opts := OptionSpec{InstrPerWarp: 1200, Seed: 3}
	small, err := Execute(Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "GTO", Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	big, err := Execute(Spec{Experiment: ExpRun, Bench: "SYRK", Sched: "GTO", Options: opts,
		Config: &harness.Override{L1SizeKB: 64, L1Ways: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(small, big) {
		t.Error("64KB L1 produced byte-identical results to 16KB L1")
	}
}
