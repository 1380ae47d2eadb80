package overhead

import "testing"

func TestStorageArithmetic(t *testing.T) {
	r := Compute()
	// §IV-A: each interference-list entry is 8 bits (6+2), each
	// pair-list entry 12 bits (6+6), 64 entries each.
	if r.InterferenceListBitsPerSM != 64*8 {
		t.Errorf("interference list bits = %d, want 512", r.InterferenceListBitsPerSM)
	}
	if r.PairListBitsPerSM != 64*12 {
		t.Errorf("pair list bits = %d, want 768", r.PairListBitsPerSM)
	}
	// §V-F: 48 32-bit VTA-hit counters per SM.
	if r.VTAHitCounterBitsPerSM != 48*32 {
		t.Errorf("hit counter bits = %d, want 1536", r.VTAHitCounterBitsPerSM)
	}
}

func TestListsAreaMatchesPaper(t *testing.T) {
	r := Compute()
	// "the combined area ... is 549 um2 per SM (8235 um2 for 15 SMs)".
	if r.DetectorListsAreaUM2 != 549.0*15 {
		t.Errorf("lists area = %f µm², want 8235", r.DetectorListsAreaUM2)
	}
}

func TestGateCounts(t *testing.T) {
	r := Compute()
	// Eq.(1) logic 2112 gates + shared-memory adaptation 4500 gates.
	if r.TotalGatesPerSM != 2112+4500 {
		t.Errorf("gates = %d, want 6612", r.TotalGatesPerSM)
	}
}

func TestPaperClaimsSatisfied(t *testing.T) {
	r := Compute()
	// All additions take "less than 2%" of the chip area.
	if r.TotalAreaFraction >= 0.02 {
		t.Errorf("total area fraction = %f, want < 0.02", r.TotalAreaFraction)
	}
	// VTA ≈ 0.12% of the 529 mm² die.
	if r.VTAAreaFraction < 0.001 || r.VTAAreaFraction > 0.0013 {
		t.Errorf("VTA fraction = %f, want ≈ 0.0012", r.VTAAreaFraction)
	}
	// Power ≈ 0.3%: 79 mW of 250 W.
	if r.PowerFraction < 0.0003 || r.PowerFraction > 0.0004 {
		t.Errorf("power fraction = %f, want ≈ 0.0003", r.PowerFraction)
	}
}
