// Package workload synthesises the instruction and memory-reference
// streams of the 21 benchmarks the CIAO paper evaluates (Table II:
// PolyBench, Mars and Rodinia kernels). The real benchmarks cannot be
// executed without a CUDA toolchain and GPGPU-Sim, so each benchmark
// is replaced by a deterministic generator parameterised by its
// published characteristics — APKI (accesses per kilo-instruction),
// input size, best static warp count, shared-memory usage, barrier
// behaviour and working-set class — plus an access-pattern model that
// recreates the locality/interference structure the paper describes:
// warps re-reference private windows (potential of data locality),
// groups of warps share regions (the non-uniform inter-warp
// interference of Figures 1a and 4), and a fraction of accesses are
// irregular (index-array style, §VI).
package workload

import (
	"fmt"

	"repro/internal/memory"
)

// Class is the paper's benchmark taxonomy (§V-A).
type Class uint8

// Benchmark classes.
const (
	// LWS is large-working-set: thrashes L1D and the shared-memory
	// cache; throttling (CIAO-T) is the effective remedy.
	LWS Class = iota
	// SWS is small-working-set: fits once interfering warps are
	// isolated into shared memory; CIAO-P is the effective remedy.
	SWS
	// CI is compute-intensive: low APKI, throttling only hurts.
	CI
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case LWS:
		return "LWS"
	case SWS:
		return "SWS"
	case CI:
		return "CI"
	default:
		return fmt.Sprintf("Class(%d)", uint8(c))
	}
}

// InstrKind classifies generated instructions.
type InstrKind uint8

// Instruction kinds.
const (
	// Compute occupies the ALU for one issue slot.
	Compute InstrKind = iota
	// GlobalLoad reads global memory through L1D (or the CIAO path).
	GlobalLoad
	// GlobalStore writes global memory (write-through, non-blocking).
	GlobalStore
	// SharedOp is an explicit programmer-managed shared-memory access.
	SharedOp
	// BarrierOp synchronises the warp's CTA.
	BarrierOp
)

// MaxFanout bounds how many line requests one warp memory instruction
// may coalesce into. A fully uncoalesced warp touches 32 lines; the
// synthetic model caps bursts at 8, which preserves the bandwidth and
// MSHR-pressure behaviour without per-thread simulation.
const MaxFanout = 8

// IntensityScale converts Table II's APKI (accesses per kilo
// *thread* instructions) into line accesses per simulated *warp*
// instruction: one warp instruction covers 32 thread instructions.
const IntensityScale = 32

// Instruction is one generated warp instruction. Memory instructions
// carry up to MaxFanout coalesced line addresses; the warp blocks
// until every line's fill returns.
type Instruction struct {
	Kind InstrKind
	// Addrs holds the NAddr line addresses of a memory instruction.
	Addrs [MaxFanout]memory.Addr
	// NAddr is the live prefix length of Addrs.
	NAddr uint8
	// Conflict is the bank-conflict degree for SharedOp.
	Conflict int
}

// AddrSlice returns the live addresses.
func (i *Instruction) AddrSlice() []memory.Addr { return i.Addrs[:i.NAddr] }

// Phase describes one execution phase of a kernel. ATAX, for example,
// runs a memory-intensive phase followed by a compute-intensive one
// (§V-C); most benchmarks have a single phase.
type Phase struct {
	// Frac is the fraction of the warp's instructions spent in this
	// phase; fractions should sum to 1.
	Frac float64
	// APKI is the phase's memory intensity (global accesses per 1000
	// thread instructions, as published in Table II).
	APKI int
	// Fanout is how many line requests one memory instruction issues
	// (1..MaxFanout): the coalescing quality. Together with APKI it
	// fixes the memory-instruction probability:
	// P(mem) = APKI×IntensityScale/1000/Fanout.
	Fanout int
	// WindowLines is the per-warp re-reference window, in cache lines:
	// the "potential of data locality" knob. The window is walked
	// cyclically, so each line's re-reference distance is
	// WindowLines / (WindowPct × line rate) instructions — long enough
	// to span scheduling turns, which is what makes window survival
	// (and therefore hit rate) depend on the fill pressure of the
	// *other* warps: cache interference.
	WindowLines int
	// Reuse controls window drift: the window slides one line every
	// WindowLines×Reuse window touches. Higher reuse = stronger
	// locality potential (fewer cold misses).
	Reuse int
	// WindowPct is the percentage of addresses that re-reference the
	// window; the rest stream sequentially (one-touch matrix sweeps)
	// except for IrregularPct.
	WindowPct int
	// IrregularPct is the percentage of addresses falling uniformly in
	// the whole input (index-array irregularity).
	IrregularPct int
	// DivergentPct is the percentage of memory instructions that are
	// fully diverged: they fan out to MaxFanout lines regardless of
	// Fanout, modelling branch/memory divergence bursts. 0 (the
	// default, and all Table II kernels) keeps the stream identical to
	// the pre-knob generator.
	DivergentPct int
	// HeavyScale multiplies heavy warps' windows (default per class).
	// It calibrates whether the heavy working set fits the
	// shared-memory cache once isolated (SWS) or overwhelms it (LWS).
	HeavyScale int
}

// Spec fully describes one synthetic benchmark.
type Spec struct {
	// Name is the paper's benchmark name.
	Name string
	// Class is the working-set class of Table II.
	Class Class
	// APKI is the published accesses-per-kilo-instruction.
	APKI int
	// InputBytes is the published input size.
	InputBytes int
	// NwrpBest is the Best-SWL active-warp count of Table II.
	NwrpBest int
	// FsMem is the fraction of shared memory the kernel itself uses.
	FsMem float64
	// Barriers reports whether the kernel synchronises CTAs.
	Barriers bool
	// NumWarps is the warps resident per SM (Table I: up to 48).
	NumWarps int
	// WarpsPerCTA groups warps into CTAs for barriers and SMMT usage.
	WarpsPerCTA int
	// InstrPerWarp is the instruction budget per warp.
	InstrPerWarp uint64
	// Fanout is the default coalescing fan-out for single-phase specs.
	Fanout int
	// HeavyEvery makes every k-th warp "heavy": an 8× reuse window,
	// doubled reuse count, 1.2× memory intensity and a quarter of the
	// irregularity. Heavy warps are the paper's central characters —
	// warps with *high potential of data locality* whose large
	// re-reference footprints severely interfere with everyone
	// (Figure 1a: W16/W18/W23; Figure 4a: one warp dominating the
	// interference suffered by another). CCWS protects them (high
	// lost-locality scores); CIAO throttles or isolates them.
	// 0 disables heterogeneity.
	HeavyEvery int
	// RegionSharing is how many warps share one access region: 1 means
	// fully private streams; k>1 makes groups of k warps re-reference
	// the same window with phase offsets, creating the strong pairwise
	// interference of Figure 1a.
	RegionSharing int
	// SharedPct is the percentage of instructions that are explicit
	// shared-memory operations.
	SharedPct int
	// ConflictDegree is the bank-conflict degree of those operations.
	ConflictDegree int
	// StorePct is the percentage of global accesses that are stores.
	StorePct int
	// BarrierEvery inserts a barrier each N instructions when Barriers.
	BarrierEvery uint64
	// Phases describes phase behaviour; when nil a single phase is
	// derived from APKI and the class defaults.
	Phases []Phase
	// Seed makes the stream deterministic; combined with warp ID.
	Seed uint64
}

// Validate reports specification errors.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: empty name")
	}
	if s.NumWarps <= 0 || s.InstrPerWarp == 0 {
		return fmt.Errorf("workload %s: no work (%d warps, %d instr)", s.Name, s.NumWarps, s.InstrPerWarp)
	}
	if s.WarpsPerCTA <= 0 || s.NumWarps%s.WarpsPerCTA != 0 {
		return fmt.Errorf("workload %s: %d warps not divisible into CTAs of %d", s.Name, s.NumWarps, s.WarpsPerCTA)
	}
	if s.RegionSharing <= 0 {
		return fmt.Errorf("workload %s: non-positive region sharing", s.Name)
	}
	if s.InputBytes < memory.LineSize {
		return fmt.Errorf("workload %s: input %dB below one line", s.Name, s.InputBytes)
	}
	var frac float64
	for _, p := range s.Phases {
		frac += p.Frac
	}
	if len(s.Phases) > 0 && (frac < 0.999 || frac > 1.001) {
		return fmt.Errorf("workload %s: phase fractions sum to %f", s.Name, frac)
	}
	return nil
}

// NumCTAs returns the CTA count.
func (s Spec) NumCTAs() int { return s.NumWarps / s.WarpsPerCTA }

// effectivePhases returns the phase list, deriving a single phase from
// the top-level parameters when none is given, and normalising fanout.
func (s Spec) effectivePhases() []Phase {
	phases := s.Phases
	if len(phases) == 0 {
		p := classPhase(s.Class)
		p.Frac = 1
		p.APKI = s.APKI
		if s.Fanout > 0 {
			p.Fanout = s.Fanout
		}
		phases = []Phase{p}
	}
	out := make([]Phase, len(phases))
	copy(out, phases)
	for i := range out {
		if out[i].Fanout <= 0 {
			if s.Fanout > 0 {
				out[i].Fanout = s.Fanout
			} else {
				out[i].Fanout = 1
			}
		}
		if out[i].Fanout > MaxFanout {
			out[i].Fanout = MaxFanout
		}
		if out[i].HeavyScale <= 0 {
			out[i].HeavyScale = classPhase(s.Class).HeavyScale
		}
		if out[i].WindowPct <= 0 {
			out[i].WindowPct = classPhase(s.Class).WindowPct
		}
	}
	return out
}

// MemProbPerMille returns the probability (in 1/1000) that one warp
// instruction of the phase is a memory instruction, derived from the
// thread-level APKI and the coalescing fan-out. It saturates at 950 to
// leave room for control instructions.
func (p Phase) MemProbPerMille() int {
	fan := p.Fanout
	if fan <= 0 {
		fan = 1
	}
	prob := p.APKI * IntensityScale / fan
	if prob > 950 {
		prob = 950
	}
	return prob
}

// classPhase returns the light-warp phase template per class. The
// window sizes are calibrated against the 128-line L1D and the
// ~372-block shared-memory cache: LWS heavy windows overflow even the
// shared-memory cache (only throttling helps); SWS heavy windows fit
// it once isolated (redirection suffices); CI kernels reuse heavily
// but access rarely.
func classPhase(c Class) Phase {
	switch c {
	case LWS:
		return Phase{WindowLines: 16, Reuse: 4, WindowPct: 50, IrregularPct: 20, Fanout: 4, HeavyScale: 8}
	case SWS:
		return Phase{WindowLines: 12, Reuse: 6, WindowPct: 70, IrregularPct: 5, Fanout: 2, HeavyScale: 4}
	default: // CI
		return Phase{WindowLines: 8, Reuse: 8, WindowPct: 60, IrregularPct: 3, Fanout: 2, HeavyScale: 8}
	}
}

// HeavyReuseScale multiplies a heavy warp's reuse count (more
// locality). See Spec.HeavyEvery.
const HeavyReuseScale = 2
