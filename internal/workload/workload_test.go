package workload

import (
	"testing"
	"testing/quick"

	"repro/internal/memory"
)

func testSpec() Spec {
	return Spec{
		Name:          "test",
		Class:         SWS,
		APKI:          100,
		InputBytes:    1 << 20,
		NwrpBest:      4,
		NumWarps:      8,
		WarpsPerCTA:   4,
		InstrPerWarp:  4000,
		RegionSharing: 2,
		StorePct:      20,
		Seed:          42,
	}
}

func TestSpecValidate(t *testing.T) {
	if err := testSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := testSpec()
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
	bad = testSpec()
	bad.WarpsPerCTA = 3 // 8 % 3 != 0
	if bad.Validate() == nil {
		t.Error("indivisible CTA grouping accepted")
	}
	bad = testSpec()
	bad.RegionSharing = 0
	if bad.Validate() == nil {
		t.Error("zero region sharing accepted")
	}
	bad = testSpec()
	bad.Phases = []Phase{{Frac: 0.5}}
	if bad.Validate() == nil {
		t.Error("non-unit phase fractions accepted")
	}
	bad = testSpec()
	bad.InputBytes = 4
	if bad.Validate() == nil {
		t.Error("sub-line input accepted")
	}
}

func TestStreamDeterminism(t *testing.T) {
	s1 := NewWarpStream(testSpec(), 3)
	s2 := NewWarpStream(testSpec(), 3)
	for i := 0; i < 2000; i++ {
		i1, ok1 := next(s1)
		i2, ok2 := next(s2)
		if ok1 != ok2 || i1 != i2 {
			t.Fatalf("streams diverge at %d: %+v vs %+v", i, i1, i2)
		}
	}
}

func TestStreamsDifferAcrossWarps(t *testing.T) {
	a := NewWarpStream(testSpec(), 0)
	b := NewWarpStream(testSpec(), 5)
	same := true
	for i := 0; i < 500; i++ {
		ia, _ := next(a)
		ib, _ := next(b)
		if ia != ib {
			same = false
			break
		}
	}
	if same {
		t.Fatal("distinct warps generated identical streams")
	}
}

func TestStreamExhaustion(t *testing.T) {
	spec := testSpec()
	spec.InstrPerWarp = 100
	s := NewWarpStream(spec, 0)
	n := 0
	for {
		_, ok := next(s)
		if !ok {
			break
		}
		n++
	}
	if n != 100 {
		t.Fatalf("stream yielded %d instructions, want 100", n)
	}
	if !s.Done() {
		t.Fatal("exhausted stream not Done")
	}
	if _, ok := next(s); ok {
		t.Fatal("Next after exhaustion succeeded")
	}
	if n := s.Fill(make([]Instruction, 4)); n != 0 {
		t.Fatalf("Fill after exhaustion produced %d instructions", n)
	}
}

func TestMeasuredAPKIMatchesSpec(t *testing.T) {
	// Line accesses per warp instruction should approximate
	// APKI × IntensityScale / 1000 regardless of the fan-out split.
	spec := testSpec()
	spec.APKI = 100
	spec.Fanout = 4
	spec.InstrPerWarp = 20000
	s := NewWarpStream(spec, 1)
	lines, total := 0, 0
	for {
		ins, ok := next(s)
		if !ok {
			break
		}
		total++
		if ins.Kind == GlobalLoad || ins.Kind == GlobalStore {
			lines += int(ins.NAddr)
		}
	}
	perKiloThread := float64(lines) / float64(total) * 1000 / IntensityScale
	if perKiloThread < 80 || perKiloThread > 120 {
		t.Fatalf("measured APKI = %.1f, spec 100 (±20%%)", perKiloThread)
	}
}

func TestMemProbPerMille(t *testing.T) {
	p := Phase{APKI: 100, Fanout: 4}
	if got := p.MemProbPerMille(); got != 800 {
		t.Fatalf("MemProb = %d, want 100*32/4 = 800", got)
	}
	p = Phase{APKI: 140, Fanout: 2}
	if got := p.MemProbPerMille(); got != 950 {
		t.Fatalf("MemProb should saturate at 950, got %d", got)
	}
	p = Phase{APKI: 10} // zero fanout treated as 1
	if got := p.MemProbPerMille(); got != 320 {
		t.Fatalf("MemProb = %d, want 320", got)
	}
}

func TestStorePct(t *testing.T) {
	spec := testSpec()
	spec.StorePct = 50
	spec.InstrPerWarp = 30000
	s := NewWarpStream(spec, 0)
	loads, stores := 0, 0
	for {
		ins, ok := next(s)
		if !ok {
			break
		}
		switch ins.Kind {
		case GlobalLoad:
			loads++
		case GlobalStore:
			stores++
		}
	}
	ratio := float64(stores) / float64(loads+stores)
	if ratio < 0.4 || ratio > 0.6 {
		t.Fatalf("store ratio = %.2f, want ~0.5", ratio)
	}
}

func TestAddressesWithinInput(t *testing.T) {
	spec := testSpec()
	s := NewWarpStream(spec, 2)
	limit := GlobalBase + memory.Addr(spec.InputBytes)
	for {
		ins, ok := next(s)
		if !ok {
			break
		}
		switch ins.Kind {
		case GlobalLoad:
			if ins.NAddr == 0 {
				t.Fatal("memory instruction with no addresses")
			}
			for _, a := range ins.AddrSlice() {
				if a < GlobalBase || a >= limit {
					t.Fatalf("address %#x outside input [%#x,%#x)", a, GlobalBase, limit)
				}
				if a.LineAddr() != a {
					t.Fatalf("address %#x not line-aligned", a)
				}
			}
		case GlobalStore:
			// Stores stream to the private output space.
			for _, a := range ins.AddrSlice() {
				if a < OutputBase {
					t.Fatalf("store address %#x below output base", a)
				}
			}
		}
	}
}

func TestRegionSharingOverlap(t *testing.T) {
	spec := testSpec()
	spec.RegionSharing = 2 // warps {0,1} share, {2,3} share, ...
	lines := func(w int) map[memory.Addr]bool {
		s := NewWarpStream(spec, w)
		out := map[memory.Addr]bool{}
		for {
			ins, ok := next(s)
			if !ok {
				break
			}
			if ins.Kind == GlobalLoad {
				for _, a := range ins.AddrSlice() {
					out[a.LineAddr()] = true
				}
			}
		}
		return out
	}
	overlap := func(a, b map[memory.Addr]bool) int {
		n := 0
		for l := range a {
			if b[l] {
				n++
			}
		}
		return n
	}
	l0, l1, l2 := lines(0), lines(1), lines(2)
	sameGroup := overlap(l0, l1)
	crossGroup := overlap(l0, l2)
	if sameGroup <= crossGroup {
		t.Fatalf("same-group overlap %d not above cross-group %d", sameGroup, crossGroup)
	}
}

func TestBarrierAlignmentAcrossWarps(t *testing.T) {
	spec := testSpec()
	spec.Barriers = true
	spec.BarrierEvery = 500
	idx := func(w int) []uint64 {
		s := NewWarpStream(spec, w)
		var out []uint64
		for i := uint64(0); ; i++ {
			ins, ok := next(s)
			if !ok {
				break
			}
			if ins.Kind == BarrierOp {
				out = append(out, i)
			}
		}
		return out
	}
	a, b := idx(0), idx(3)
	if len(a) == 0 {
		t.Fatal("no barriers generated")
	}
	if len(a) != len(b) {
		t.Fatalf("warps disagree on barrier count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("barrier %d at different indices: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestPhaseTransition(t *testing.T) {
	spec := testSpec()
	spec.InstrPerWarp = 10000
	spec.Phases = []Phase{
		{Frac: 0.5, APKI: 400, WindowLines: 16, Reuse: 2, IrregularPct: 10, Fanout: 1},
		{Frac: 0.5, APKI: 1, WindowLines: 4, Reuse: 8, IrregularPct: 0, Fanout: 1},
	}
	s := NewWarpStream(spec, 0)
	memFirst, memSecond := 0, 0
	for i := 0; i < 10000; i++ {
		ins, ok := next(s)
		if !ok {
			break
		}
		if ins.Kind == GlobalLoad || ins.Kind == GlobalStore {
			if i < 5000 {
				memFirst++
			} else {
				memSecond++
			}
		}
	}
	if memFirst < memSecond*10 {
		t.Fatalf("phase contrast missing: %d vs %d memory accesses", memFirst, memSecond)
	}
}

func TestSharedOps(t *testing.T) {
	spec := testSpec()
	spec.SharedPct = 30
	spec.ConflictDegree = 4
	s := NewWarpStream(spec, 0)
	shared := 0
	for {
		ins, ok := next(s)
		if !ok {
			break
		}
		if ins.Kind == SharedOp {
			shared++
			if ins.Conflict != 4 {
				t.Fatalf("conflict degree = %d, want 4", ins.Conflict)
			}
		}
	}
	frac := float64(shared) / float64(spec.InstrPerWarp)
	if frac < 0.2 || frac > 0.4 {
		t.Fatalf("shared fraction = %.2f, want ~0.3", frac)
	}
}

func TestSuiteComplete(t *testing.T) {
	suite := Suite()
	if len(suite) != 21 {
		t.Fatalf("suite has %d benchmarks, want 21 (Table II)", len(suite))
	}
	classes := map[Class]int{}
	for _, s := range suite {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: invalid spec: %v", s.Name, err)
		}
		classes[s.Class]++
	}
	// Table II: 5 LWS, 8 SWS, 8 CI.
	if classes[LWS] != 5 || classes[SWS] != 8 || classes[CI] != 8 {
		t.Fatalf("class counts = %v, want LWS:5 SWS:8 CI:8", classes)
	}
}

func TestTableIICharacteristics(t *testing.T) {
	cases := []struct {
		name  string
		apki  int
		nwrp  int
		fsmem float64
		class Class
	}{
		{"ATAX", 64, 2, 0, LWS},
		{"GESUMMV", 136, 2, 0, SWS},
		{"SS", 34, 48, 0.50, SWS},
		{"Backprop", 3, 36, 0.13, CI},
		{"Hotspot", 1, 48, 0.19, CI},
		{"Lud", 2, 38, 0.50, CI},
	}
	for _, c := range cases {
		s, err := ByName(c.name)
		if err != nil {
			t.Fatalf("%s missing: %v", c.name, err)
		}
		if s.APKI != c.apki || s.NwrpBest != c.nwrp || s.FsMem != c.fsmem || s.Class != c.class {
			t.Errorf("%s = (APKI %d, Nwrp %d, Fsmem %.2f, %v), want (%d,%d,%.2f,%v)",
				c.name, s.APKI, s.NwrpBest, s.FsMem, s.Class, c.apki, c.nwrp, c.fsmem, c.class)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestSensitivitySet(t *testing.T) {
	set := SensitivitySet()
	if len(set) != 7 {
		t.Fatalf("sensitivity set has %d entries, want 7", len(set))
	}
}

func TestMemoryIntensiveExcludesCI(t *testing.T) {
	for _, s := range MemoryIntensive() {
		if s.Class == CI {
			t.Fatalf("%s is CI but in memory-intensive set", s.Name)
		}
	}
	if len(MemoryIntensive()) != 13 {
		t.Fatalf("memory-intensive count = %d, want 13", len(MemoryIntensive()))
	}
}

func TestKernelConstruction(t *testing.T) {
	k, err := NewKernel(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(k.streams) != 8 {
		t.Fatalf("warps = %d", len(k.streams))
	}
	if k.TotalInstructions() != 8*4000 {
		t.Fatalf("total instructions = %d", k.TotalInstructions())
	}
	bad := testSpec()
	bad.Name = ""
	if _, err := NewKernel(bad); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

// Property: every generated instruction is well-formed — addresses
// line-aligned and within the input for memory ops, conflict degree
// at least 1 for shared ops, zero values elsewhere.
func TestStreamWellFormedInvariant(t *testing.T) {
	f := func(seed uint64, warp uint8) bool {
		spec := testSpec()
		spec.Seed = seed
		spec.InstrPerWarp = 500
		spec.SharedPct = 10
		spec.ConflictDegree = 3
		s := NewWarpStream(spec, int(warp)%spec.NumWarps)
		for {
			ins, ok := next(s)
			if !ok {
				return true
			}
			switch ins.Kind {
			case GlobalLoad, GlobalStore:
				if ins.NAddr == 0 || int(ins.NAddr) > MaxFanout {
					return false
				}
				for _, a := range ins.AddrSlice() {
					if a.LineAddr() != a || a < GlobalBase {
						return false
					}
				}
			case SharedOp:
				if ins.Conflict < 1 {
					return false
				}
			case Compute, BarrierOp:
				if ins.NAddr != 0 {
					return false
				}
			}
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestClassString(t *testing.T) {
	if LWS.String() != "LWS" || SWS.String() != "SWS" || CI.String() != "CI" {
		t.Fatal("class strings wrong")
	}
}
