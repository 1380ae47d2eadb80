package harness

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

func TestOverrideValidate(t *testing.T) {
	cases := []struct {
		name string
		o    Override
		want string // "" = valid
	}{
		{"zero", Override{}, ""},
		{"bigger L1", Override{L1SizeKB: 64, L1Ways: 8}, ""},
		{"fermi 48KB mode", Override{L1SizeKB: 48, L1Ways: 6, SharedMemKB: 16}, ""},
		{"warps", Override{WarpsPerSM: 24}, ""},
		{"ciao", Override{CIAOHighEpoch: 1000, CIAOHighCutoff: 0.02, CIAOLowCutoff: 0.01}, ""},
		{"negative", Override{L1SizeKB: -1}, "negative"},
		{"warp granularity", Override{WarpsPerSM: 30}, "warps_per_sm"},
		{"most warps", Override{WarpsPerSM: workload.MaxWarps}, ""},
		// Would allocate a 2^40-entry interference matrix.
		{"too many warps", Override{WarpsPerSM: 1 << 20}, "above"},
		{"bad sets", Override{L1SizeKB: 17}, "power of two"},
		{"cutoff range", Override{CIAOHighCutoff: 1.5}, "cutoffs"},
		{"inverted cutoffs", Override{CIAOHighCutoff: 0.01, CIAOLowCutoff: 0.02}, "ciao_low_cutoff"},
		// One-sided overrides compare against the defaults they keep
		// (high 0.01, low 0.005).
		{"low above default high", Override{CIAOLowCutoff: 0.02}, "ciao_low_cutoff"},
		{"high below default low", Override{CIAOHighCutoff: 0.003}, "ciao_low_cutoff"},
		{"low below default high", Override{CIAOLowCutoff: 0.008}, ""},
	}
	for _, tc := range cases {
		err := tc.o.Validate()
		if tc.want == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

func TestOverrideApplyConfig(t *testing.T) {
	o := Override{L1SizeKB: 32, L1Ways: 8, SharedMemKB: 32, DRAMBandwidthX: 2, WarpsPerSM: 16}
	opt := Options{SampleInterval: 777, Override: o}
	spec, err := workload.ByName("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	if got := opt.applySpec(spec).NumWarps; got != 16 {
		t.Errorf("NumWarps = %d", got)
	}
	f, err := SchedulerByName("GTO")
	if err != nil {
		t.Fatal(err)
	}
	cfg := opt.buildConfig(f)
	if cfg.L1.SizeBytes != 32<<10 || cfg.L1.Ways != 8 {
		t.Errorf("L1 = %d bytes %d ways", cfg.L1.SizeBytes, cfg.L1.Ways)
	}
	if cfg.SharedMemBytes != 32<<10 {
		t.Errorf("shared = %d", cfg.SharedMemBytes)
	}
	if cfg.L2Config.DRAM.BandwidthMultiplier != 2 {
		t.Errorf("bandwidth = %d", cfg.L2Config.DRAM.BandwidthMultiplier)
	}
	if cfg.SampleInterval != 777 {
		t.Error("override dropped the sample interval")
	}
}

func TestOverrideApplyCIAO(t *testing.T) {
	o := Override{CIAOHighEpoch: 1234, CIAOHighCutoff: 0.04, CIAOLowCutoff: 0.02}
	f, err := SchedulerByName("CIAO-C")
	if err != nil {
		t.Fatal(err)
	}
	c, ok := o.controller(f).(*core.CIAO)
	if !ok {
		t.Fatal("CIAO-C override built a non-CIAO controller")
	}
	p := c.Params()
	if p.HighEpoch != 1234 || p.HighCutoff != 0.04 || p.LowCutoff != 0.02 {
		t.Errorf("params = %+v", p)
	}
	if c.Mode() != core.ModeC {
		t.Errorf("mode = %v, want CIAO-C", c.Mode())
	}
	// Non-CIAO controllers are left alone.
	gto, err := SchedulerByName("GTO")
	if err != nil {
		t.Fatal(err)
	}
	if name := o.controller(gto).Name(); name != "GTO" {
		t.Errorf("GTO override built %s", name)
	}
}

func TestOverrideWarpsReachSimulation(t *testing.T) {
	spec, err := workload.ByName("SYRK")
	if err != nil {
		t.Fatal(err)
	}
	f, err := SchedulerByName("GTO")
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := RunOne(spec, f, Options{InstrPerWarp: 300, Override: Override{WarpsPerSM: 16}})
	if err != nil {
		t.Fatal(err)
	}
	if r.FinishedWarps != 16 {
		t.Errorf("finished warps = %d, want 16", r.FinishedWarps)
	}
}
