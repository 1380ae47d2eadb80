// Package dram models the GDDR5 main memory of Table I: 16 banks with
// tCL=12, tRCD=12, tRAS=28, open-row policy and a shared data bus whose
// throughput can be doubled for the Figure 12b experiments
// (statPCAL-2X / CIAO-C-2X, 177 GB/s → 340 GB/s).
//
// The model is a latency oracle: Service(now, addr) returns the cycle
// at which the 128-byte line transfer completes, advancing per-bank
// row-buffer state and the bus cursor. This keeps the SM pipeline
// simple while preserving the contention behaviour that matters to the
// paper's experiments (DRAM latency ≫ L1D latency, bounded bandwidth).
package dram

import (
	"fmt"

	"repro/internal/memory"
)

// Config carries the Table I GDDR5 timing parameters.
type Config struct {
	// Banks is the number of DRAM banks.
	Banks int
	// TCL is the CAS latency in memory cycles.
	TCL int
	// TRCD is the RAS-to-CAS delay.
	TRCD int
	// TRAS is the row-active time (min cycles between ACT and PRE).
	TRAS int
	// RowBytes is the row-buffer size per bank.
	RowBytes int
	// TransferCycles is the bus occupancy of one 128-byte line at 1×
	// bandwidth. The default models one SM's share of the GPU's
	// aggregate GDDR5 bandwidth: 177 GB/s at ~700 MHz core clock is
	// about two 128B lines per cycle for the whole chip, so each of
	// the 15 SMs sustains roughly one line every 8 cycles.
	TransferCycles int
	// BandwidthMultiplier scales the bus throughput (2 for the -2X
	// configurations of Figure 12b). Values < 1 are treated as 1.
	BandwidthMultiplier int
}

// DefaultConfig returns the Table I GDDR5 configuration.
func DefaultConfig() Config {
	return Config{
		Banks:               16,
		TCL:                 12,
		TRCD:                12,
		TRAS:                28,
		RowBytes:            2 << 10,
		TransferCycles:      6,
		BandwidthMultiplier: 1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Banks <= 0 || c.TCL < 0 || c.TRCD < 0 || c.TRAS < 0 {
		return fmt.Errorf("dram: invalid timing %+v", c)
	}
	if c.RowBytes < memory.LineSize || c.TransferCycles <= 0 {
		return fmt.Errorf("dram: invalid geometry %+v (rows hold at least one %dB line)", c, memory.LineSize)
	}
	return nil
}

// Stats aggregates DRAM activity.
type Stats struct {
	Reads      uint64
	Writes     uint64
	RowHits    uint64
	RowMisses  uint64
	BusBusy    uint64 // total bus cycles consumed
	LastFinish uint64 // completion cycle of the latest transfer
}

type bank struct {
	openRow   int64 // -1 = closed
	readyAt   uint64
	activated uint64 // cycle of last ACT, for tRAS accounting
}

// DRAM is the memory device. Not safe for concurrent use; each
// simulated GPU owns one.
type DRAM struct {
	cfg   Config
	banks []bank
	// bankDiv and rowDiv split a line number into bank and row
	// without a runtime divide; xfer is the bus occupancy of one line.
	bankDiv, rowDiv memory.Divisor
	xfer            uint64
	// busFree is the first cycle at which the data bus is idle.
	busFree uint64
	stats   Stats
}

// New builds a DRAM from cfg.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.BandwidthMultiplier < 1 {
		cfg.BandwidthMultiplier = 1
	}
	banks := make([]bank, cfg.Banks)
	for i := range banks {
		banks[i].openRow = -1
	}
	return &DRAM{
		cfg:     cfg,
		banks:   banks,
		bankDiv: memory.NewDivisor(uint64(cfg.Banks)),
		rowDiv:  memory.NewDivisor(uint64(cfg.RowBytes / memory.LineSize)),
		xfer:    max(uint64(cfg.TransferCycles)/uint64(cfg.BandwidthMultiplier), 1),
	}
}

// bankAndRow decomposes a line address: lines interleave across banks,
// and each bank's row holds RowBytes/LineSize consecutive lines of it.
func (d *DRAM) bankAndRow(addr memory.Addr) (bankIdx int, row int64) {
	q, b := d.bankDiv.DivMod(addr.LineIndex())
	r, _ := d.rowDiv.DivMod(q)
	return int(b), int64(r)
}

// Service performs a line read or write beginning no earlier than now
// and returns the completion cycle. Row-buffer hits cost tCL; misses
// cost precharge-constrained tRCD+tCL; the transfer then occupies the
// shared bus for TransferCycles / BandwidthMultiplier cycles.
func (d *DRAM) Service(now uint64, addr memory.Addr, isWrite bool) (done uint64) {
	bi, row := d.bankAndRow(addr)
	b := &d.banks[bi]

	start := now
	if b.readyAt > start {
		start = b.readyAt
	}

	var colReady uint64
	if b.openRow == row {
		d.stats.RowHits++
		colReady = start + uint64(d.cfg.TCL)
	} else {
		d.stats.RowMisses++
		// Respect tRAS before precharging the previously open row.
		actEarliest := start
		if b.openRow >= 0 {
			if min := b.activated + uint64(d.cfg.TRAS); min > actEarliest {
				actEarliest = min
			}
		}
		b.activated = actEarliest
		b.openRow = row
		colReady = actEarliest + uint64(d.cfg.TRCD) + uint64(d.cfg.TCL)
	}

	// Bus arbitration: the transfer starts when both the column data is
	// ready and the bus is free.
	busStart := colReady
	if d.busFree > busStart {
		busStart = d.busFree
	}
	done = busStart + d.xfer
	d.busFree = done
	b.readyAt = colReady

	d.stats.BusBusy += d.xfer
	d.stats.LastFinish = done
	if isWrite {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	return done
}

// Stats returns a snapshot of the statistics.
func (d *DRAM) Stats() Stats { return d.stats }
