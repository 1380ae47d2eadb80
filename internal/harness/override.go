package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sm"
	"repro/internal/workload"
)

// Override is the declarative, JSON-addressable form of a cell's
// machine and controller configuration. The paper's figures describe
// their configuration studies with it, and because it is plain data
// any cell — not just the figures' fixed ones — can be requested over
// the wire, content-addressed, and swept.
//
// Zero fields keep the Table I defaults, so the zero Override is the
// baseline machine.
type Override struct {
	// L1SizeKB resizes the L1D data capacity (Table I: 16).
	L1SizeKB int `json:"l1_size_kb,omitempty"`
	// L1Ways changes the L1D associativity (Table I: 4). The implied
	// set count must stay a power of two.
	L1Ways int `json:"l1_ways,omitempty"`
	// SharedMemKB resizes shared memory (Table I: 48).
	SharedMemKB int `json:"shared_mem_kb,omitempty"`
	// WarpsPerSM caps resident warps (Table I: 48); it must divide
	// into the benchmark's CTAs (multiples of 8 for the whole suite)
	// and stay at most workload.MaxWarps.
	WarpsPerSM int `json:"warps_per_sm,omitempty"`
	// VTAEntriesPerWarp changes the victim-tag-array depth (Table I: 8).
	VTAEntriesPerWarp int `json:"vta_entries,omitempty"`
	// MSHREntries changes the L1 MSHR capacity (Table I: 32).
	MSHREntries int `json:"mshr_entries,omitempty"`
	// DRAMBandwidthX scales DRAM bandwidth (Figure 12b uses 2).
	DRAMBandwidthX int `json:"dram_bandwidth_x,omitempty"`
	// CIAOHighEpoch overrides the CIAO high-cutoff check period
	// (paper: 5000). Ignored for non-CIAO schedulers.
	CIAOHighEpoch uint64 `json:"ciao_high_epoch,omitempty"`
	// CIAOHighCutoff overrides the CIAO severe-interference IRS
	// threshold (paper: 0.01). Ignored for non-CIAO schedulers.
	CIAOHighCutoff float64 `json:"ciao_high_cutoff,omitempty"`
	// CIAOLowCutoff overrides the CIAO release threshold (paper:
	// 0.005). Ignored for non-CIAO schedulers.
	CIAOLowCutoff float64 `json:"ciao_low_cutoff,omitempty"`
}

// IsZero reports whether the override leaves everything at defaults.
func (o Override) IsZero() bool { return o == Override{} }

// Validate rejects overrides that cannot build a machine, so bad cells
// fail before a worker slot is taken rather than deep inside NewGPU.
func (o Override) Validate() error {
	if o.L1SizeKB < 0 || o.L1Ways < 0 || o.SharedMemKB < 0 || o.WarpsPerSM < 0 ||
		o.VTAEntriesPerWarp < 0 || o.MSHREntries < 0 || o.DRAMBandwidthX < 0 {
		return fmt.Errorf("harness: negative override field")
	}
	if o.WarpsPerSM > 0 && o.WarpsPerSM%workload.DefaultWarpsPerCTA != 0 {
		return fmt.Errorf("harness: warps_per_sm %d not a multiple of the CTA size %d",
			o.WarpsPerSM, workload.DefaultWarpsPerCTA)
	}
	if o.WarpsPerSM > workload.MaxWarps {
		return fmt.Errorf("harness: warps_per_sm %d above %d", o.WarpsPerSM, workload.MaxWarps)
	}
	if o.CIAOHighCutoff < 0 || o.CIAOHighCutoff >= 1 || o.CIAOLowCutoff < 0 || o.CIAOLowCutoff >= 1 {
		return fmt.Errorf("harness: CIAO cutoffs must lie in [0,1)")
	}
	// Compare the cutoffs as they will take effect: an unset side keeps
	// its default, so overriding just one can still invert them.
	if o.CIAOHighCutoff > 0 || o.CIAOLowCutoff > 0 {
		def := core.DefaultParams()
		high, low := o.CIAOHighCutoff, o.CIAOLowCutoff
		if high == 0 {
			high = def.HighCutoff
		}
		if low == 0 {
			low = def.LowCutoff
		}
		if low > high {
			return fmt.Errorf("harness: effective ciao_low_cutoff %g above ciao_high_cutoff %g", low, high)
		}
	}
	// Dry-run the config mutation against the defaults to catch
	// geometry errors (non-power-of-two set counts, undersized MSHRs).
	cfg := sm.DefaultConfig()
	cfg.EnableSharedCache = true
	o.applyConfig(&cfg)
	return cfg.Validate()
}

func (o Override) applyConfig(c *sm.Config) {
	if o.L1SizeKB > 0 {
		c.L1.SizeBytes = o.L1SizeKB << 10
	}
	if o.L1Ways > 0 {
		c.L1.Ways = o.L1Ways
	}
	if o.SharedMemKB > 0 {
		c.SharedMemBytes = o.SharedMemKB << 10
	}
	if o.VTAEntriesPerWarp > 0 {
		c.VTAEntriesPerWarp = o.VTAEntriesPerWarp
	}
	if o.MSHREntries > 0 {
		c.MSHREntries = o.MSHREntries
	}
	if o.DRAMBandwidthX > 0 {
		c.L2Config.DRAM.BandwidthMultiplier = o.DRAMBandwidthX
	}
}

// controller builds f's controller with the CIAO parameters applied;
// other controllers ignore them.
func (o Override) controller(f SchedulerFactory) sm.Controller {
	ctrl := f.New()
	c, ok := ctrl.(*core.CIAO)
	if !ok || (o.CIAOHighEpoch == 0 && o.CIAOHighCutoff == 0 && o.CIAOLowCutoff == 0) {
		return ctrl
	}
	p := c.Params()
	if o.CIAOHighEpoch > 0 {
		p.HighEpoch = o.CIAOHighEpoch
	}
	if o.CIAOHighCutoff > 0 {
		p.HighCutoff = o.CIAOHighCutoff
	}
	if o.CIAOLowCutoff > 0 {
		p.LowCutoff = o.CIAOLowCutoff
	}
	return core.New(c.Mode(), p)
}
