package workload

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/memory"
)

// SyntheticPrefix marks a benchmark name as a generator descriptor
// rather than a Table II kernel. Everything after the prefix is a
// comma-separated key=value list, e.g.
//
//	synthetic:class=LWS,apki=80,window=24,reuse=6,irr_pct=30,seed=7
//
// Unset keys take class-derived defaults. The descriptor is parsed and
// validated by ParseSynthetic; Descriptor.Name renders the canonical
// full form (every effective key, fixed order, normalised values), so
// any two spellings of the same workload share one canonical name —
// and therefore one content-addressed cache/store key.
const SyntheticPrefix = "synthetic:"

// IsSynthetic reports whether name is a synthetic-workload descriptor.
func IsSynthetic(name string) bool { return strings.HasPrefix(name, SyntheticPrefix) }

// SynthPhase is one phase of a multi-phase descriptor: a fraction of
// the instruction budget with its own intensity and coalescing.
type SynthPhase struct {
	Frac   float64
	APKI   int
	Fanout int // 0 = descriptor-level fanout
}

// Descriptor is a validated synthetic-workload parameterisation. All
// fields are effective values (defaults already applied); Spec()
// lowers it to a workload.Spec and Name() renders the canonical
// benchmark name.
type Descriptor struct {
	Class      Class
	APKI       int     // accesses per kilo thread-instruction
	InputKB    int     // input size in KiB
	Warps      int     // resident warps
	CTA        int     // warps per CTA
	Instr      int     // instructions per warp
	Fanout     int     // lines per memory instruction (1..MaxFanout)
	Window     int     // re-reference window, lines
	Reuse      int     // slides once per Window×Reuse touches
	WindowPct  int     // % of addresses re-referencing the window
	IrrPct     int     // % of addresses falling anywhere in the input
	DivPct     int     // % of memory instructions fully diverged
	HeavyEvery int     // every k-th warp is heavy; 0 = homogeneous
	HeavyScale int     // heavy-warp window multiplier
	Sharing    int     // warps sharing one access region
	StorePct   int     // % of global accesses that are stores
	SharedPct  int     // % of instructions doing explicit shared ops
	Conflict   int     // bank-conflict degree of those ops
	Barrier    uint64  // barrier every N instructions; 0 = none
	Nwrp       int     // Best-SWL static limit
	FsMem      float64 // fraction of shared memory the kernel claims
	Seed       uint64
	Phases     []SynthPhase // empty = single phase
}

// descriptor key order of the canonical form. Phases, when present,
// renders last.
var synthKeys = []string{
	"class", "apki", "input_kb", "warps", "cta", "instr", "fanout",
	"window", "reuse", "window_pct", "irr_pct", "div_pct",
	"heavy_every", "heavy_scale", "sharing", "store_pct", "shared_pct",
	"conflict", "barrier", "nwrp", "fsmem", "seed",
}

// ParseSynthetic parses and validates a synthetic descriptor name.
func ParseSynthetic(name string) (Descriptor, error) {
	if !IsSynthetic(name) {
		return Descriptor{}, fmt.Errorf("workload: %q lacks the %q prefix", name, SyntheticPrefix)
	}
	body := name[len(SyntheticPrefix):]

	// Collect raw assignments first: class must be known before
	// class-derived defaults can be applied.
	raw := map[string]string{}
	if body != "" {
		for _, item := range strings.Split(body, ",") {
			k, v, ok := strings.Cut(item, "=")
			if !ok || k == "" || v == "" {
				return Descriptor{}, fmt.Errorf("workload: synthetic descriptor item %q is not key=value", item)
			}
			if _, dup := raw[k]; dup {
				return Descriptor{}, fmt.Errorf("workload: synthetic descriptor repeats %q", k)
			}
			raw[k] = v
		}
	}

	d := Descriptor{
		Class:      LWS,
		APKI:       64,
		InputKB:    1024,
		Warps:      DefaultWarps,
		CTA:        DefaultWarpsPerCTA,
		Instr:      DefaultInstrPerWarp,
		HeavyEvery: 5,
		Sharing:    1,
		StorePct:   5,
		Conflict:   2,
		Seed:       DefaultSeed,
	}
	if v, ok := raw["class"]; ok {
		switch v {
		case "LWS":
			d.Class = LWS
		case "SWS":
			d.Class = SWS
		case "CI":
			d.Class = CI
		default:
			return Descriptor{}, fmt.Errorf("workload: synthetic class %q (want LWS, SWS or CI)", v)
		}
	}
	// Locality knobs default to the class template, like suite kernels.
	tpl := classPhase(d.Class)
	d.Fanout = tpl.Fanout
	d.Window = tpl.WindowLines
	d.Reuse = tpl.Reuse
	d.WindowPct = tpl.WindowPct
	d.IrrPct = tpl.IrregularPct
	d.HeavyScale = tpl.HeavyScale

	for k, v := range raw {
		var err error
		switch k {
		case "class":
			// handled above
		case "apki":
			d.APKI, err = parseInt(v)
		case "input_kb":
			d.InputKB, err = parseInt(v)
		case "warps":
			d.Warps, err = parseInt(v)
		case "cta":
			d.CTA, err = parseInt(v)
		case "instr":
			d.Instr, err = parseInt(v)
		case "fanout":
			d.Fanout, err = parseInt(v)
		case "window":
			d.Window, err = parseInt(v)
		case "reuse":
			d.Reuse, err = parseInt(v)
		case "window_pct":
			d.WindowPct, err = parseInt(v)
		case "irr_pct":
			d.IrrPct, err = parseInt(v)
		case "div_pct":
			d.DivPct, err = parseInt(v)
		case "heavy_every":
			d.HeavyEvery, err = parseInt(v)
		case "heavy_scale":
			d.HeavyScale, err = parseInt(v)
		case "sharing":
			d.Sharing, err = parseInt(v)
		case "store_pct":
			d.StorePct, err = parseInt(v)
		case "shared_pct":
			d.SharedPct, err = parseInt(v)
		case "conflict":
			d.Conflict, err = parseInt(v)
		case "barrier":
			d.Barrier, err = strconv.ParseUint(v, 10, 64)
		case "nwrp":
			d.Nwrp, err = parseInt(v)
		case "fsmem":
			d.FsMem, err = strconv.ParseFloat(v, 64)
		case "seed":
			d.Seed, err = strconv.ParseUint(v, 10, 64)
		case "phases":
			d.Phases, err = parsePhases(v)
		default:
			return Descriptor{}, fmt.Errorf("workload: unknown synthetic key %q", k)
		}
		if err != nil {
			return Descriptor{}, fmt.Errorf("workload: synthetic %s=%q: %v", k, v, err)
		}
	}
	if _, set := raw["nwrp"]; !set {
		d.Nwrp = max(1, d.Warps/8)
	}
	if err := d.Validate(); err != nil {
		return Descriptor{}, err
	}
	return d, nil
}

func parseInt(v string) (int, error) {
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, err
	}
	return n, nil
}

// parsePhases parses "frac:apki[:fanout]" terms joined by "+", e.g.
// "0.3:190:4+0.7:10:1".
func parsePhases(v string) ([]SynthPhase, error) {
	terms := strings.Split(v, "+")
	out := make([]SynthPhase, 0, len(terms))
	for _, t := range terms {
		parts := strings.Split(t, ":")
		if len(parts) < 2 || len(parts) > 3 {
			return nil, fmt.Errorf("phase %q is not frac:apki[:fanout]", t)
		}
		frac, err := strconv.ParseFloat(parts[0], 64)
		if err != nil {
			return nil, fmt.Errorf("phase %q: %v", t, err)
		}
		apki, err := strconv.Atoi(parts[1])
		if err != nil {
			return nil, fmt.Errorf("phase %q: %v", t, err)
		}
		p := SynthPhase{Frac: frac, APKI: apki}
		if len(parts) == 3 {
			if p.Fanout, err = strconv.Atoi(parts[2]); err != nil {
				return nil, fmt.Errorf("phase %q: %v", t, err)
			}
		}
		out = append(out, p)
	}
	return out, nil
}

// Validate checks the descriptor's ranges. It is called by
// ParseSynthetic; direct Descriptor constructions should call it too.
func (d Descriptor) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("workload: synthetic descriptor: "+format, args...)
	}
	if d.APKI < 1 || d.APKI > 1000 {
		return fail("apki %d outside [1,1000]", d.APKI)
	}
	if d.InputKB*1024 < memory.LineSize || d.InputKB > 1<<20 {
		return fail("input_kb %d outside [1,%d]", d.InputKB, 1<<20)
	}
	if d.Warps < 1 || d.Warps > MaxWarps {
		return fail("warps %d outside [1,%d]", d.Warps, MaxWarps)
	}
	if d.CTA < 1 || d.Warps%d.CTA != 0 {
		return fail("%d warps not divisible into CTAs of %d", d.Warps, d.CTA)
	}
	if d.Instr < 1 || d.Instr > 10_000_000 {
		return fail("instr %d outside [1,1e7]", d.Instr)
	}
	if d.Fanout < 1 || d.Fanout > MaxFanout {
		return fail("fanout %d outside [1,%d]", d.Fanout, MaxFanout)
	}
	if d.Window < 1 || d.Window > 1<<20 {
		return fail("window %d outside [1,2^20]", d.Window)
	}
	if d.Reuse < 1 || d.Reuse > 1<<20 {
		return fail("reuse %d outside [1,2^20]", d.Reuse)
	}
	for _, pct := range []struct {
		k string
		v int
	}{
		{"window_pct", d.WindowPct}, {"irr_pct", d.IrrPct},
		{"div_pct", d.DivPct}, {"store_pct", d.StorePct},
		{"shared_pct", d.SharedPct},
	} {
		if pct.v < 0 || pct.v > 100 {
			return fail("%s %d outside [0,100]", pct.k, pct.v)
		}
	}
	if d.WindowPct+d.IrrPct > 100 {
		return fail("window_pct+irr_pct %d exceeds 100", d.WindowPct+d.IrrPct)
	}
	if d.HeavyEvery < 0 {
		return fail("heavy_every %d negative", d.HeavyEvery)
	}
	if d.HeavyScale < 1 || d.HeavyScale > 64 {
		return fail("heavy_scale %d outside [1,64]", d.HeavyScale)
	}
	if d.Sharing < 1 || d.Sharing > d.Warps {
		return fail("sharing %d outside [1,warps=%d]", d.Sharing, d.Warps)
	}
	if d.Conflict < 1 || d.Conflict > 32 {
		return fail("conflict %d outside [1,32]", d.Conflict)
	}
	if d.Nwrp < 1 || d.Nwrp > d.Warps {
		return fail("nwrp %d outside [1,warps=%d]", d.Nwrp, d.Warps)
	}
	if d.FsMem < 0 || d.FsMem > 0.95 {
		return fail("fsmem %g outside [0,0.95]", d.FsMem)
	}
	if len(d.Phases) > 8 {
		return fail("%d phases exceeds 8", len(d.Phases))
	}
	var frac float64
	for i, p := range d.Phases {
		if p.Frac <= 0 || p.Frac > 1 {
			return fail("phase %d frac %g outside (0,1]", i, p.Frac)
		}
		if p.APKI < 1 || p.APKI > 1000 {
			return fail("phase %d apki %d outside [1,1000]", i, p.APKI)
		}
		if p.Fanout < 0 || p.Fanout > MaxFanout {
			return fail("phase %d fanout %d outside [0,%d]", i, p.Fanout, MaxFanout)
		}
		frac += p.Frac
	}
	if len(d.Phases) > 0 && (frac < 0.999 || frac > 1.001) {
		return fail("phase fractions sum to %g, want 1", frac)
	}
	return nil
}

// Name renders the canonical descriptor name: every key in fixed
// order with its effective value, phases last when present. Parsing
// the canonical name reproduces the descriptor exactly, so equal
// workloads always canonicalise to equal names (and equal cache keys).
func (d Descriptor) Name() string {
	var b strings.Builder
	b.WriteString(SyntheticPrefix)
	for i, k := range synthKeys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		switch k {
		case "class":
			b.WriteString(d.Class.String())
		case "apki":
			b.WriteString(strconv.Itoa(d.APKI))
		case "input_kb":
			b.WriteString(strconv.Itoa(d.InputKB))
		case "warps":
			b.WriteString(strconv.Itoa(d.Warps))
		case "cta":
			b.WriteString(strconv.Itoa(d.CTA))
		case "instr":
			b.WriteString(strconv.Itoa(d.Instr))
		case "fanout":
			b.WriteString(strconv.Itoa(d.Fanout))
		case "window":
			b.WriteString(strconv.Itoa(d.Window))
		case "reuse":
			b.WriteString(strconv.Itoa(d.Reuse))
		case "window_pct":
			b.WriteString(strconv.Itoa(d.WindowPct))
		case "irr_pct":
			b.WriteString(strconv.Itoa(d.IrrPct))
		case "div_pct":
			b.WriteString(strconv.Itoa(d.DivPct))
		case "heavy_every":
			b.WriteString(strconv.Itoa(d.HeavyEvery))
		case "heavy_scale":
			b.WriteString(strconv.Itoa(d.HeavyScale))
		case "sharing":
			b.WriteString(strconv.Itoa(d.Sharing))
		case "store_pct":
			b.WriteString(strconv.Itoa(d.StorePct))
		case "shared_pct":
			b.WriteString(strconv.Itoa(d.SharedPct))
		case "conflict":
			b.WriteString(strconv.Itoa(d.Conflict))
		case "barrier":
			b.WriteString(strconv.FormatUint(d.Barrier, 10))
		case "nwrp":
			b.WriteString(strconv.Itoa(d.Nwrp))
		case "fsmem":
			b.WriteString(strconv.FormatFloat(d.FsMem, 'g', -1, 64))
		case "seed":
			b.WriteString(strconv.FormatUint(d.Seed, 10))
		}
	}
	if len(d.Phases) > 0 {
		b.WriteString(",phases=")
		for i, p := range d.Phases {
			if i > 0 {
				b.WriteByte('+')
			}
			fan := p.Fanout
			if fan == 0 {
				fan = d.Fanout
			}
			fmt.Fprintf(&b, "%s:%d:%d",
				strconv.FormatFloat(p.Frac, 'g', -1, 64), p.APKI, fan)
		}
	}
	return b.String()
}

// CanonicalSynthetic parses name and returns its canonical form. Cache
// and store keys hash the canonical form, so descriptor spellings that
// produce the same workload share one content address.
func CanonicalSynthetic(name string) (string, error) {
	d, err := ParseSynthetic(name)
	if err != nil {
		return "", err
	}
	return d.Name(), nil
}

// Spec lowers the descriptor to a runnable workload.Spec. The phases
// are always explicit so every locality knob applies regardless of
// class defaults.
func (d Descriptor) Spec() Spec {
	s := Spec{
		Name:           d.Name(),
		Class:          d.Class,
		APKI:           d.APKI,
		InputBytes:     d.InputKB * 1024,
		NwrpBest:       d.Nwrp,
		FsMem:          d.FsMem,
		Barriers:       d.Barrier > 0,
		NumWarps:       d.Warps,
		WarpsPerCTA:    d.CTA,
		InstrPerWarp:   uint64(d.Instr),
		Fanout:         d.Fanout,
		HeavyEvery:     d.HeavyEvery,
		RegionSharing:  d.Sharing,
		SharedPct:      d.SharedPct,
		ConflictDegree: d.Conflict,
		StorePct:       d.StorePct,
		BarrierEvery:   d.Barrier,
		Seed:           d.Seed,
	}
	phases := d.Phases
	if len(phases) == 0 {
		phases = []SynthPhase{{Frac: 1, APKI: d.APKI, Fanout: d.Fanout}}
	}
	for _, p := range phases {
		fan := p.Fanout
		if fan == 0 {
			fan = d.Fanout
		}
		s.Phases = append(s.Phases, Phase{
			Frac:         p.Frac,
			APKI:         p.APKI,
			Fanout:       fan,
			WindowLines:  d.Window,
			Reuse:        d.Reuse,
			WindowPct:    d.WindowPct,
			IrregularPct: d.IrrPct,
			DivergentPct: d.DivPct,
			HeavyScale:   d.HeavyScale,
		})
	}
	return s
}
