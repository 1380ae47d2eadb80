package dram

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

func TestRowHitVsMissLatency(t *testing.T) {
	d := New(DefaultConfig())
	cfg := d.Config()

	// Cold access: row miss → tRCD + tCL + transfer.
	done1 := d.Service(0, 0x0, false)
	wantMiss := uint64(cfg.TRCD + cfg.TCL + cfg.TransferCycles)
	if done1 != wantMiss {
		t.Fatalf("cold access done = %d, want %d", done1, wantMiss)
	}

	// Same bank and row (line 16 → bank 0, row 0), bank now ready:
	// row hit → tCL + transfer from request time.
	start := done1 + 100
	done2 := d.Service(start, 16*memory.LineSize, false)
	wantHit := start + uint64(cfg.TCL+cfg.TransferCycles)
	if done2 != wantHit {
		t.Fatalf("row-hit done = %d, want %d", done2, wantHit)
	}
	if d.Stats().RowHits != 1 || d.Stats().RowMisses != 1 {
		t.Fatalf("row stats = %+v", d.Stats())
	}
}

func TestBankDecomposition(t *testing.T) {
	d := New(DefaultConfig())
	// Lines 0..15 should map to banks 0..15.
	seen := map[int]bool{}
	for i := 0; i < 16; i++ {
		bi, _ := d.bankAndRow(memory.Addr(i) * memory.LineSize)
		seen[bi] = true
	}
	if len(seen) != 16 {
		t.Fatalf("16 consecutive lines hit %d banks, want 16", len(seen))
	}
}

func TestBusSerialization(t *testing.T) {
	d := New(DefaultConfig())
	// Two same-cycle requests to different banks still share the bus:
	// completions must be at least TransferCycles apart.
	d1 := d.Service(0, 0x0, false)
	d2 := d.Service(0, 0x80, false) // next line → different bank
	if d2 < d1+uint64(d.Config().TransferCycles) {
		t.Fatalf("bus not serialized: %d then %d", d1, d2)
	}
}

func TestBandwidthMultiplierSpeedsTransfers(t *testing.T) {
	base := DefaultConfig()
	fast := DefaultConfig()
	fast.BandwidthMultiplier = 2

	d1, d2 := New(base), New(fast)
	// Saturate the bus with many requests at cycle 0.
	var last1, last2 uint64
	for i := 0; i < 64; i++ {
		a := memory.Addr(i) * memory.LineSize
		last1 = d1.Service(0, a, false)
		last2 = d2.Service(0, a, false)
	}
	if last2 >= last1 {
		t.Fatalf("2X bandwidth no faster under saturation: %d vs %d", last2, last1)
	}
}

func TestTRASRespected(t *testing.T) {
	cfg := DefaultConfig()
	d := New(cfg)
	// Open row 0 of bank 0, then immediately conflict with another row
	// in the same bank: the second activation must wait out tRAS.
	d.Service(0, 0x0, false)
	rowStride := uint64(cfg.RowBytes * cfg.Banks) // next row, same bank
	done := d.Service(1, memory.Addr(rowStride), false)
	minDone := uint64(cfg.TRAS + cfg.TRCD + cfg.TCL) // activation waited for tRAS
	if done < minDone {
		t.Fatalf("row conflict done = %d, violates tRAS floor %d", done, minDone)
	}
}

func TestWriteCounted(t *testing.T) {
	d := New(DefaultConfig())
	d.Service(0, 0x0, true)
	d.Service(0, 0x80, false)
	s := d.Stats()
	if s.Writes != 1 || s.Reads != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestValidate(t *testing.T) {
	bad := DefaultConfig()
	bad.Banks = 0
	if bad.Validate() == nil {
		t.Fatal("zero banks accepted")
	}
	bad = DefaultConfig()
	bad.TransferCycles = 0
	if bad.Validate() == nil {
		t.Fatal("zero transfer cycles accepted")
	}
}

// TestValidateRejectsSubLineRows: a row narrower than one line holds
// no line, and decomposing an address by it would divide by zero.
func TestValidateRejectsSubLineRows(t *testing.T) {
	for _, rb := range []int{-1, 0, 1, 64, memory.LineSize - 1} {
		bad := DefaultConfig()
		bad.RowBytes = rb
		if bad.Validate() == nil {
			t.Errorf("RowBytes %d accepted", rb)
		}
	}
	ok := DefaultConfig()
	ok.RowBytes = memory.LineSize
	if err := ok.Validate(); err != nil {
		t.Fatalf("one-line rows rejected: %v", err)
	}
	d := New(ok)
	// Each row holds one line: consecutive lines of a bank open new rows.
	d.Service(0, 0, false)
	d.Service(100, memory.Addr(ok.Banks*memory.LineSize), false)
	if s := d.Stats(); s.RowHits != 0 || s.RowMisses != 2 {
		t.Errorf("one-line rows: %d row hits, %d misses, want 0 and 2", s.RowHits, s.RowMisses)
	}
}

// Property: completions are monotone in request time for a fixed
// address (a later request never completes earlier), and every
// completion strictly exceeds its request time.
func TestServiceMonotoneInvariant(t *testing.T) {
	f := func(deltas []uint8) bool {
		d := New(DefaultConfig())
		now, prevDone := uint64(0), uint64(0)
		for i, dt := range deltas {
			now += uint64(dt)
			done := d.Service(now, memory.Addr(i%64)*memory.LineSize, false)
			if done <= now || done < prevDone {
				return false
			}
			prevDone = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestResetStats(t *testing.T) {
	d := New(DefaultConfig())
	d.Service(0, 0x0, false)
	d.ResetStats()
	if d.Stats().Reads != 0 || d.Stats().RowMisses != 0 {
		t.Fatal("reset did not clear stats")
	}
}
