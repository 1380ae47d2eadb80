package workload

import (
	"fmt"
	"slices"
	"sync"
)

// Default simulation scale. Experiments override InstrPerWarp for
// longer runs; the default keeps unit tests fast while still letting
// the interference dynamics develop.
const (
	// DefaultWarps is the Table I maximum resident warps per SM
	// (1536 threads / 32).
	DefaultWarps = 48
	// DefaultWarpsPerCTA groups warps into 6 CTAs.
	DefaultWarpsPerCTA = 8
	// MaxWarps bounds a kernel's resident warps wherever a request
	// sets them: the interference matrix grows with their square.
	MaxWarps = 1024
	// DefaultInstrPerWarp is the per-warp instruction budget.
	DefaultInstrPerWarp = 6000
	// DefaultSeed seeds all suite streams.
	DefaultSeed = 0x5EED_C1A0
)

// buildSuite constructs the 21 Table II specs. It runs exactly once
// (see cachedSuite); all public accessors hand out defensive copies of
// the memoized result.
func buildSuite() []Spec {
	mk := func(name string, class Class, apki, inputBytes, nwrp int, fsmem float64, barriers bool) Spec {
		s := Spec{
			Name:          name,
			Class:         class,
			APKI:          apki,
			InputBytes:    inputBytes,
			NwrpBest:      nwrp,
			FsMem:         fsmem,
			Barriers:      barriers,
			NumWarps:      DefaultWarps,
			WarpsPerCTA:   DefaultWarpsPerCTA,
			InstrPerWarp:  DefaultInstrPerWarp,
			RegionSharing: 1, // private footprints: throttling a warp removes its window
			StorePct:      5,
			Seed:          DefaultSeed,
		}
		// MapReduce kernels (Mars) emit far more intermediate writes
		// than the streaming PolyBench/Rodinia reads.
		switch name {
		case "II", "PVC", "SS", "SM", "WC":
			s.StorePct = 15
		}
		// Coalescing quality: PolyBench column sweeps and MapReduce
		// hash scatters fan one warp access out over several lines;
		// compute-intensive kernels coalesce well. Every fifth warp is
		// a heavy high-locality one (see Spec.HeavyEvery).
		switch class {
		case LWS, SWS:
			s.Fanout = 4
		default:
			s.Fanout = 2
		}
		s.HeavyEvery = 5
		if barriers {
			s.BarrierEvery = 1500
		}
		if fsmem > 0 {
			s.SharedPct = 4
			s.ConflictDegree = 2
		}
		return s
	}

	const (
		kb = 1 << 10
		mb = 1 << 20
	)

	atax := mk("ATAX", LWS, 64, 64*mb, 2, 0, false)
	// §V-C: ATAX has a memory-intensive first phase and a
	// compute-intensive second phase within one kernel.
	atax.Phases = []Phase{
		{Frac: 0.3, APKI: 190, WindowLines: 16, Reuse: 4, WindowPct: 40, IrregularPct: 25, Fanout: 4, HeavyScale: 8},
		{Frac: 0.7, APKI: 10, WindowLines: 8, Reuse: 8, WindowPct: 60, IrregularPct: 4, Fanout: 1, HeavyScale: 2},
	}

	kmn := mk("KMN", LWS, 46, 168*kb, 4, 0.01, true)
	// KMN's redirected warps thrash even the shared-memory cache
	// (Figure 10): all warps hash-scatter over one small input whose
	// 1344 lines exceed the shared-memory cache, so redirection alone
	// cannot help and selective throttling (CIAO-T/C) must.
	kmn.RegionSharing = 48
	kmn.Phases = []Phase{{Frac: 1, APKI: 46, WindowLines: 16, Reuse: 3, WindowPct: 30, IrregularPct: 45, Fanout: 8, HeavyScale: 12}}

	backprop := mk("Backprop", CI, 3, 5*mb, 36, 0.13, true)
	// Figure 1a: a few high-locality (heavy) warps interfere fiercely
	// with one another while the kernel is otherwise compute-bound.
	backprop.Phases = []Phase{{Frac: 1, APKI: 3, WindowLines: 8, Reuse: 12, WindowPct: 55, IrregularPct: 2, Fanout: 2, HeavyScale: 8}}

	syrk := mk("SYRK", SWS, 94, 512*kb, 6, 0, false)

	specs := []Spec{
		atax,
		mk("BICG", LWS, 64, 64*mb, 2, 0, false),
		mk("MVT", LWS, 64, 64*mb, 2, 0, false),
		kmn,
		mk("Kmeans", LWS, 85, 101*mb, 2, 0, true),
		mk("GESUMMV", SWS, 136, 128*mb, 2, 0, false),
		mk("SYR2K", SWS, 108, 48*mb, 6, 0, false),
		syrk,
		mk("II", SWS, 75, 28*mb, 4, 0, true),
		mk("PVC", SWS, 64, 13*mb, 48, 0.33, true),
		mk("SS", SWS, 34, 23*mb, 48, 0.50, true),
		mk("SM", SWS, 140, 1*mb, 48, 0.01, true),
		mk("WC", SWS, 19, 88*kb, 48, 0.01, true),
		mk("Gaussian", CI, 18, 339*kb, 48, 0, false),
		mk("2DCONV", CI, 9, 64*mb, 36, 0, false),
		mk("CORR", CI, 10, 2*mb, 48, 0, false),
		backprop,
		mk("Hotspot", CI, 1, 2*mb, 48, 0.19, true),
		mk("Lud", CI, 2, 25*kb, 38, 0.50, true),
		mk("NN", CI, 8, 334*kb, 48, 0, false),
		mk("NW", CI, 5, 32*mb, 48, 0.35, true),
	}
	return specs
}

// The suite is immutable after construction, so it is built once and
// shared. Sweep expansion calls ByName per cell (O(n·m) rebuilds
// before memoization); the index map makes each lookup O(1).
var (
	cachedSuite = sync.OnceValue(buildSuite)
	suiteIndex  = sync.OnceValue(func() map[string]int {
		idx := make(map[string]int, len(cachedSuite()))
		for i, s := range cachedSuite() {
			idx[s.Name] = i
		}
		return idx
	})
)

// copySpec returns a mutation-safe copy: Phases is the only reference
// field of Spec.
func copySpec(s Spec) Spec {
	s.Phases = slices.Clone(s.Phases)
	return s
}

// Suite returns specs for all 21 benchmarks of Table II with their
// published APKI, input size, Best-SWL warp count, shared-memory
// fraction, barrier behaviour and class. Pattern parameters
// (window/reuse/irregularity/sharing) are the synthetic-model knobs
// chosen per class, with per-benchmark adjustments where the paper
// describes distinctive behaviour (ATAX's two phases, Backprop's
// high-locality interfering warp groups, KMN's shared-memory-thrashing
// redirection). Callers own the returned slice and may mutate it.
func Suite() []Spec {
	src := cachedSuite()
	out := make([]Spec, len(src))
	for i, s := range src {
		out[i] = copySpec(s)
	}
	return out
}

// ByName returns the spec with the given name: a Table II benchmark,
// or a "synthetic:" descriptor parsed into a generated spec (see
// ParseSynthetic).
func ByName(name string) (Spec, error) {
	if IsSynthetic(name) {
		d, err := ParseSynthetic(name)
		if err != nil {
			return Spec{}, err
		}
		return d.Spec(), nil
	}
	if i, ok := suiteIndex()[name]; ok {
		return copySpec(cachedSuite()[i]), nil
	}
	return Spec{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// MemoryIntensive returns the LWS and SWS specs — the set Figures 11
// and 12 sweep.
func MemoryIntensive() []Spec {
	var out []Spec
	for _, s := range cachedSuite() {
		if s.Class == LWS || s.Class == SWS {
			out = append(out, copySpec(s))
		}
	}
	return out
}

// SensitivitySet returns the seven benchmarks of Figure 11:
// ATAX, GESUMMV, SYR2K, SYRK, BICG, MVT and Kmeans.
func SensitivitySet() []Spec {
	names := []string{"ATAX", "GESUMMV", "SYR2K", "SYRK", "BICG", "MVT", "Kmeans"}
	out := make([]Spec, 0, len(names))
	for _, n := range names {
		s, err := ByName(n)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

// ByClass filters the suite.
func ByClass(c Class) []Spec {
	var out []Spec
	for _, s := range cachedSuite() {
		if s.Class == c {
			out = append(out, copySpec(s))
		}
	}
	return out
}
