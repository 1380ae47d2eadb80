// Package overhead reproduces the Section V-F hardware cost analysis
// of the CIAO paper: the storage, area, gate and power arithmetic for
// the interference detector and the shared-memory adaptations. The
// paper derives these numbers analytically from structure sizes (with
// CACTI 6.0 for SRAM area); this package reproduces the same
// arithmetic so the claimed totals can be checked.
package overhead

// Parameters of the GTX480-like configuration used in §V-F.
const (
	// NumSMs is the SM count.
	NumSMs = 15
	// WarpsPerSM is the resident warp slots per SM.
	WarpsPerSM = 48
	// ListEntries is the interference/pair-list entry count (64: the
	// max CTA warp budget, §IV-A).
	ListEntries = 64
	// WIDBits is the warp-ID width (48 warps → 6 bits).
	WIDBits = 6
	// SatCounterBits is the interference-list confidence counter.
	SatCounterBits = 2
	// VTAHitCounterBits is the per-warp VTA-hit counter width; it
	// resets each kernel, so 32 bits cannot overflow (§V-F).
	VTAHitCounterBits = 32
	// ChipAreaMM2 is the GTX480 die area [30].
	ChipAreaMM2 = 529.0
	// ChipPowerW is the GTX480 TDP for the power-fraction claim.
	ChipPowerW = 250.0
)

// Paper-reported component figures (§V-F).
const (
	// VTAAreaMM2 is the CACTI estimate for all 15 SMs' VTA structures.
	VTAAreaMM2 = 0.65
	// ListsAreaUM2PerSM is the combined VTA-hit counters +
	// interference list + pair list area per SM, in µm².
	ListsAreaUM2PerSM = 549.0
	// IRSGates is the Eq. 1 evaluation logic (adders, shifter,
	// comparator).
	IRSGates = 2112
	// SharedMemGates is the translation unit + multiplexer + MSHR
	// extension logic per SM.
	SharedMemGates = 4500
	// PowerMW is the GPUWattch average power of all new components.
	PowerMW = 79.0
)

// Report is the assembled overhead summary.
type Report struct {
	// InterferenceListBitsPerSM is the interference-list SRAM size.
	InterferenceListBitsPerSM int
	// PairListBitsPerSM is the pair-list SRAM size.
	PairListBitsPerSM int
	// VTAHitCounterBitsPerSM is the per-SM hit-counter storage.
	VTAHitCounterBitsPerSM int
	// DetectorListsAreaUM2 is the lists' area for all SMs, in µm².
	DetectorListsAreaUM2 float64
	// VTAAreaMM2 is the VTA area for all SMs.
	VTAAreaMM2 float64
	// VTAAreaFraction is VTA area / chip area.
	VTAAreaFraction float64
	// TotalAreaFraction is the paper's headline "< 2% of chip area".
	TotalAreaFraction float64
	// TotalGatesPerSM sums the IRS and shared-memory logic.
	TotalGatesPerSM int
	// PowerFraction is detector+datapath power / chip power.
	PowerFraction float64
}

// Compute assembles the Section V-F report from the structure sizes.
func Compute() Report {
	r := Report{
		// Each interference-list entry: 6-bit WID + 2-bit counter.
		InterferenceListBitsPerSM: ListEntries * (WIDBits + SatCounterBits),
		// Each pair-list entry: two 6-bit WIDs.
		PairListBitsPerSM:      ListEntries * (2 * WIDBits),
		VTAHitCounterBitsPerSM: WarpsPerSM * VTAHitCounterBits,
		DetectorListsAreaUM2:   ListsAreaUM2PerSM * NumSMs,
		VTAAreaMM2:             VTAAreaMM2,
		TotalGatesPerSM:        IRSGates + SharedMemGates,
	}
	r.VTAAreaFraction = r.VTAAreaMM2 / ChipAreaMM2
	// Total area: VTA + lists (µm²→mm²) + logic. Logic gates are
	// negligible in area; the paper bounds everything by 2%.
	r.TotalAreaFraction = (r.VTAAreaMM2 + r.DetectorListsAreaUM2/1e6) / ChipAreaMM2
	r.PowerFraction = (PowerMW / 1000.0) / ChipPowerW
	return r
}
