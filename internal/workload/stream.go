package workload

import "repro/internal/memory"

// GlobalBase is the base global address of every benchmark's input.
const GlobalBase memory.Addr = 0x1000_0000

// rng is a splitmix64 PRNG: tiny, fast and deterministic across
// platforms, which matters more here than statistical sophistication.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed*0x9E3779B97F4A7C15 + 1} }

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// pct rolls a percentage in [0,100).
func (r *rng) pct() int { return int(r.next() % 100) }

// phaseRT is a phase's precomputed runtime view: every per-instruction
// derived quantity (heavy-warp adjustments, effective window geometry,
// slide threshold) folded into constants at stream construction, so
// the generation hot path reads fields instead of re-deriving them.
type phaseRT struct {
	bound   uint64 // cumulative instruction boundary (exclusive)
	memProb int    // global-access probability, per mille
	irrPct  int    // irregular-jump share of addresses, per cent
	winPct  int    // window re-reference share of addresses, per cent
	divPct  int    // fully-diverged share of memory instructions, per cent
	fanout  int    // addresses per memory instruction
	win     uint64 // effective window size in lines
	span    uint64 // streaming span beyond the window, >= 1
	slideAt int    // window touches between one-line slides
}

// WarpStream generates the instruction sequence of one warp, lazily
// and deterministically.
//
// The per-instruction path divides by nothing but constants: every
// position that wraps (barrier phase, window cursor and start, the
// streaming cursor) is a counter reset at its bound, and the irregular
// jump divides by a precomputed reciprocal.
type WarpStream struct {
	spec     Spec
	warpID   int
	heavy    bool // heterogeneity: elevated traffic and window
	rnd      *rng
	issued   uint64    // instructions produced so far
	rt       []phaseRT // precomputed phases, in order
	cur      int       // index of the active phase in rt
	conflict int       // shared-op bank conflict degree, >= 1

	// barrierEvery is the barrier period (0: no barriers) and
	// barrierPos is issued modulo it.
	barrierEvery, barrierPos uint64

	// Window-walk state.
	windowStart  uint64 // line offset of the window within the region, < regionLines
	windowPos    uint64 // cursor within the window
	windowTouch  int    // touches since the last slide
	streamCursor uint64 // one-touch streaming touches so far
	streamPos    uint64 // streamCursor modulo the active phase's span

	// Region geometry.
	regionLines uint64 // lines per region
	regionBase  memory.Addr
	inputLines  memory.Divisor // lines of the whole input

	// outCursor walks the warp's private output stream (stores write
	// results sequentially, like the y[] of a matrix-vector kernel;
	// they never revisit the reuse window).
	outCursor uint64
}

// OutputBase is the base address of the store output space, disjoint
// from every input region.
const OutputBase memory.Addr = 0x8000_0000

// NewWarpStream builds the stream for warp warpID of spec.
func NewWarpStream(spec Spec, warpID int) *WarpStream {
	phases := spec.effectivePhases()
	bounds := make([]uint64, len(phases))
	var acc float64
	for i, p := range phases {
		acc += p.Frac
		bounds[i] = uint64(acc * float64(spec.InstrPerWarp))
	}
	bounds[len(bounds)-1] = spec.InstrPerWarp // absorb rounding

	inputLines := uint64(spec.InputBytes / memory.LineSize)
	if inputLines == 0 {
		inputLines = 1
	}
	numRegions := spec.NumWarps / spec.RegionSharing
	if numRegions == 0 {
		numRegions = 1
	}
	regionLines := inputLines / uint64(numRegions)
	if regionLines == 0 {
		regionLines = 1
	}
	region := warpID / spec.RegionSharing % numRegions
	base := GlobalBase + memory.Addr(uint64(region)*regionLines*memory.LineSize)

	heavy := spec.HeavyEvery > 0 && warpID%spec.HeavyEvery == spec.HeavyEvery-1
	conflict := spec.ConflictDegree
	if conflict < 1 {
		conflict = 1
	}
	ws := &WarpStream{
		spec:        spec,
		warpID:      warpID,
		heavy:       heavy,
		rnd:         newRNG(spec.Seed ^ (uint64(warpID)+1)*0xA24BAED4963EE407),
		rt:          make([]phaseRT, len(phases)),
		conflict:    conflict,
		regionLines: regionLines,
		regionBase:  base,
		inputLines:  memory.NewDivisor(inputLines),
	}
	if spec.Barriers {
		ws.barrierEvery = spec.BarrierEvery
	}
	for i, p := range phases {
		ws.rt[i] = ws.compilePhase(p, bounds[i])
	}
	// Warps sharing a region start phase-shifted within the window so
	// they chase each other's lines rather than marching in lockstep.
	ws.windowPos = uint64(warpID%spec.RegionSharing) * 2
	return ws
}

// Done reports stream exhaustion.
func (s *WarpStream) Done() bool { return s.issued >= s.spec.InstrPerWarp }

// compilePhase folds a phase's per-instruction derivations (the heavy
// 1.6× traffic boost, locality shift, effective window and slide
// threshold) into a phaseRT. The arithmetic mirrors what the old
// generation path computed per call; only the evaluation point moves.
func (s *WarpStream) compilePhase(ph Phase, bound uint64) phaseRT {
	rt := phaseRT{bound: bound, memProb: ph.MemProbPerMille(),
		irrPct: ph.IrregularPct, winPct: ph.WindowPct,
		divPct: ph.DivergentPct, fanout: ph.Fanout}
	if rt.fanout <= 0 {
		rt.fanout = 1
	}
	win := uint64(ph.WindowLines)
	if win == 0 {
		win = 1
	}
	reuse := ph.Reuse
	if reuse <= 0 {
		reuse = 1
	}
	if s.heavy {
		// Heavy warps run hotter and are the high-locality ones: more
		// window re-references, less irregularity, a scaled window.
		rt.memProb = rt.memProb * 8 / 5
		if rt.memProb > 980 {
			rt.memProb = 980
		}
		rt.irrPct /= 4
		rt.winPct += 20
		if rt.winPct > 85 {
			rt.winPct = 85
		}
		scale := ph.HeavyScale
		if scale <= 0 {
			scale = 1
		}
		win *= uint64(scale)
		reuse *= HeavyReuseScale
	}
	if win > s.regionLines {
		win = s.regionLines
	}
	rt.win = win
	rt.span = s.regionLines - win
	if rt.span == 0 {
		rt.span = 1
	}
	rt.slideAt = int(win) * reuse
	return rt
}

// Fill generates up to len(dst) instructions into dst, advancing the
// stream, and returns how many it produced (0 when exhausted). It is
// the stream's one generator loop: the SM refills a warp's instruction
// buffer in one call, so the phase lookup and call overhead amortise
// across the batch. Fill writes each instruction's Kind, NAddr,
// Conflict and live addresses; Addrs past NAddr keep whatever dst held.
func (s *WarpStream) Fill(dst []Instruction) int {
	n := 0
	for ; n < len(dst) && s.issued < s.spec.InstrPerWarp; n++ {
		ins := &dst[n]
		issued := s.issued
		s.issued = issued + 1

		// Barriers fire at fixed indices so all warps of a CTA agree.
		if s.barrierEvery > 0 {
			at := s.barrierPos == 0 && issued > 0
			if s.barrierPos++; s.barrierPos == s.barrierEvery {
				s.barrierPos = 0
			}
			if at {
				ins.Kind, ins.NAddr, ins.Conflict = BarrierOp, 0, 0
				continue
			}
		}

		// issued only grows, so the active phase advances monotonically
		// and a cursor bump finds it. The streaming cursor wraps at the
		// new phase's span from here on.
		for s.cur+1 < len(s.rt) && issued >= s.rt[s.cur].bound {
			s.cur++
			s.streamPos = s.streamCursor % s.rt[s.cur].span
		}
		ph := &s.rt[s.cur]

		// Explicit shared-memory traffic.
		if s.spec.SharedPct > 0 && s.rnd.pct() < s.spec.SharedPct {
			ins.Kind, ins.NAddr, ins.Conflict = SharedOp, 0, s.conflict
			continue
		}

		// Global memory access with probability derived from the phase's
		// thread-level APKI and coalescing fan-out.
		if int(s.rnd.next()%1000) >= ph.memProb {
			ins.Kind, ins.NAddr, ins.Conflict = Compute, 0, 0
			continue
		}
		kind := GlobalLoad
		if s.spec.StorePct > 0 && s.rnd.pct() < s.spec.StorePct {
			kind = GlobalStore
		}
		fan := ph.fanout
		// Divergence bursts: a diverged memory instruction touches the
		// maximum line count. The roll is gated on divPct > 0 so specs
		// without the knob consume exactly the pre-knob RNG sequence.
		if ph.divPct > 0 && s.rnd.pct() < ph.divPct {
			fan = MaxFanout
		}
		ins.Kind, ins.NAddr, ins.Conflict = kind, uint8(fan), 0
		if kind == GlobalStore {
			// Results stream to a private output array; they never
			// touch the reuse window.
			for k := 0; k < fan; k++ {
				line := uint64(s.warpID)<<24 + s.outCursor
				s.outCursor++
				ins.Addrs[k] = OutputBase + memory.Addr(line*memory.LineSize)
			}
			continue
		}
		for k := 0; k < fan; k++ {
			ins.Addrs[k] = s.nextAddress(ph)
		}
	}
	return n
}

// nextAddress picks one line: a window re-reference (locality), an
// irregular jump (index-array), or a one-touch streaming line.
func (s *WarpStream) nextAddress(ph *phaseRT) memory.Addr {
	roll := s.rnd.pct()
	switch {
	case roll < ph.irrPct:
		// Index-array style access anywhere in the input.
		_, line := s.inputLines.DivMod(s.rnd.next())
		return GlobalBase + memory.Addr(line*memory.LineSize)
	case roll < ph.irrPct+ph.winPct:
		return s.windowAddress(ph)
	default:
		// One-touch stream through the region, beyond the window area.
		// win+streamPos is at most regionLines (span = regionLines-win,
		// or 1 when the window fills the region), so one subtraction
		// wraps it.
		line := ph.win + s.streamPos
		if line >= s.regionLines {
			line -= s.regionLines
		}
		s.streamCursor++
		if s.streamPos++; s.streamPos == ph.span {
			s.streamPos = 0
		}
		return s.regionBase + memory.Addr(line*memory.LineSize)
	}
}

// windowAddress walks the window cyclically, sliding one line every
// win×reuse touches so cold misses stay rare while the phase's
// locality structure persists.
func (s *WarpStream) windowAddress(ph *phaseRT) memory.Addr {
	pos := s.windowPos
	if s.windowPos++; s.windowPos >= ph.win {
		s.windowPos = 0
		// A warp's start offset or a phase change to a smaller window
		// can leave the cursor past the window's end: that one touch
		// lands at its position modulo the window.
		if pos >= ph.win {
			pos %= ph.win
		}
	}
	// windowStart < regionLines and pos < win <= regionLines, so one
	// subtraction wraps the sum.
	line := s.windowStart + pos
	if line >= s.regionLines {
		line -= s.regionLines
	}
	s.windowTouch++
	if s.windowTouch >= ph.slideAt {
		s.windowTouch = 0
		if s.windowStart++; s.windowStart == s.regionLines {
			s.windowStart = 0
		}
	}
	return s.regionBase + memory.Addr(line*memory.LineSize)
}

// Kernel bundles the per-warp streams of one benchmark instance.
type Kernel struct {
	spec    Spec
	streams []*WarpStream
}

// NewKernel validates spec and builds all warp streams.
func NewKernel(spec Spec) (*Kernel, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	streams := make([]*WarpStream, spec.NumWarps)
	for w := range streams {
		streams[w] = NewWarpStream(spec, w)
	}
	return &Kernel{spec: spec, streams: streams}, nil
}

// MustKernel is NewKernel for known-good specs (panics on error).
func MustKernel(spec Spec) *Kernel {
	k, err := NewKernel(spec)
	if err != nil {
		panic(err)
	}
	return k
}

// Spec returns the kernel's specification.
func (k *Kernel) Spec() Spec { return k.spec }

// Stream returns warp w's stream.
func (k *Kernel) Stream(w int) *WarpStream { return k.streams[w] }

// TotalInstructions returns the aggregate instruction budget.
func (k *Kernel) TotalInstructions() uint64 {
	return uint64(k.spec.NumWarps) * k.spec.InstrPerWarp
}
