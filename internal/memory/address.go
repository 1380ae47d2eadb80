// Package memory provides the fundamental memory-system types shared by
// every level of the simulated GPU memory hierarchy: global addresses,
// cache-line arithmetic, memory requests, MSHRs and the queues that
// connect L1D, shared memory, L2 and DRAM.
//
// The models follow the GTX480-like configuration the CIAO paper uses
// (Table I): 128-byte cache lines throughout.
package memory

import "fmt"

// Addr is a global memory byte address.
type Addr uint64

// LineSize is the cache line size in bytes used throughout the
// hierarchy (Table I: 128B lines at both L1D and L2).
const LineSize = 128

// LineShift is log2(LineSize).
const LineShift = 7

// LineAddr returns the address truncated to its cache line.
func (a Addr) LineAddr() Addr { return a &^ (LineSize - 1) }

// LineIndex returns the global line number of the address.
func (a Addr) LineIndex() uint64 { return uint64(a) >> LineShift }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }
