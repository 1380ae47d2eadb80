package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"
)

// next produces the stream's next instruction; ok=false when exhausted.
func next(s *WarpStream) (ins Instruction, ok bool) {
	var b [1]Instruction
	ok = s.Fill(b[:]) == 1
	return b[0], ok
}

// streamDigest hashes every instruction of every warp of a kernel.
func streamDigest(t *testing.T, spec Spec) [32]byte {
	t.Helper()
	k, err := NewKernel(spec)
	if err != nil {
		t.Fatalf("NewKernel: %v", err)
	}
	h := sha256.New()
	var buf [8]byte
	for w := 0; w < len(k.streams); w++ {
		st := k.Stream(w)
		for {
			ins, ok := next(st)
			if !ok {
				break
			}
			h.Write([]byte{byte(ins.Kind), ins.NAddr, byte(ins.Conflict)})
			for _, a := range ins.AddrSlice() {
				binary.LittleEndian.PutUint64(buf[:], uint64(a))
				h.Write(buf[:])
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSyntheticDeterminism(t *testing.T) {
	names := []string{
		"synthetic:",
		"synthetic:class=SWS,apki=120,window=32,reuse=8,seed=42",
		"synthetic:div_pct=35,irr_pct=40,window_pct=30,fanout=2",
		"synthetic:phases=0.3:190:4+0.7:10:1,heavy_every=3,sharing=8",
		"synthetic:class=CI,apki=4,shared_pct=10,conflict=4,barrier=1000",
	}
	for _, name := range names {
		s1, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		s2, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q) again: %v", name, err)
		}
		d1, d2 := streamDigest(t, s1), streamDigest(t, s2)
		if d1 != d2 {
			t.Errorf("%q: two builds of the same descriptor diverge", name)
		}
	}
}

func TestSyntheticSeedChangesStream(t *testing.T) {
	a, err := ByName("synthetic:seed=1")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ByName("synthetic:seed=2")
	if err != nil {
		t.Fatal(err)
	}
	if streamDigest(t, a) == streamDigest(t, b) {
		t.Error("different seeds produced identical streams")
	}
}

func TestSyntheticCanonicalName(t *testing.T) {
	// Two spellings of the same workload must canonicalise identically.
	c1, err := CanonicalSynthetic("synthetic:apki=80,class=LWS,window=16")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CanonicalSynthetic("synthetic:window=16,apki=80")
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("canonical names differ:\n  %s\n  %s", c1, c2)
	}
	// The canonical form is a fixed point of canonicalisation.
	c3, err := CanonicalSynthetic(c1)
	if err != nil {
		t.Fatalf("canonical form failed to parse: %v", err)
	}
	if c3 != c1 {
		t.Errorf("canonicalisation is not idempotent:\n  %s\n  %s", c1, c3)
	}
	if !strings.Contains(c1, "apki=80") || !strings.Contains(c1, "window=16") {
		t.Errorf("canonical form lost explicit params: %s", c1)
	}
}

func TestSyntheticSpecValidates(t *testing.T) {
	s, err := ByName("synthetic:phases=0.5:200:8+0.5:5:1,div_pct=25")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("generated spec invalid: %v", err)
	}
	if len(s.Phases) != 2 {
		t.Fatalf("got %d phases, want 2", len(s.Phases))
	}
	for i, p := range s.Phases {
		if p.DivergentPct != 25 {
			t.Errorf("phase %d DivergentPct = %d, want 25", i, p.DivergentPct)
		}
	}
}

func TestSyntheticValidation(t *testing.T) {
	cases := []struct {
		name string
		bad  string // substring expected in the error; "" = must parse
	}{
		{"synthetic:", ""},
		{"synthetic:apki=64", ""},
		{"synthetic:class=SWS,div_pct=100", ""},
		{"synthetic:warps=8,cta=8,sharing=8", ""},
		{"synthetic:apki=0", "apki"},
		{"synthetic:apki=1001", "apki"},
		{"synthetic:input_kb=0", "input_kb"},
		{"synthetic:warps=0", "warps"},
		{"synthetic:warps=10,cta=4", "divisible"},
		{"synthetic:instr=0", "instr"},
		{"synthetic:fanout=0", "fanout"},
		{"synthetic:fanout=9", "fanout"},
		{"synthetic:window=0", "window"},
		{"synthetic:reuse=0", "reuse"},
		{"synthetic:window_pct=101", "window_pct"},
		{"synthetic:irr_pct=-1", "irr_pct"},
		{"synthetic:div_pct=101", "div_pct"},
		{"synthetic:window_pct=60,irr_pct=50", "exceeds 100"},
		{"synthetic:heavy_scale=0", "heavy_scale"},
		{"synthetic:sharing=0", "sharing"},
		{"synthetic:sharing=49", "sharing"},
		{"synthetic:store_pct=200", "store_pct"},
		{"synthetic:conflict=0", "conflict"},
		{"synthetic:nwrp=0", "nwrp"},
		{"synthetic:nwrp=99", "nwrp"},
		{"synthetic:fsmem=0.99", "fsmem"},
		{"synthetic:seed=abc", "seed"},
		{"synthetic:phases=0.5:100", "fractions"},
		{"synthetic:phases=1:0", "apki"},
		{"synthetic:phases=1:100:9", "fanout"},
		{"synthetic:phases=nope", "phase"},
		{"synthetic:bogus=1", "unknown"},
		{"synthetic:apki=1,apki=2", "repeats"},
		{"synthetic:apki", "key=value"},
		{"synthetic:=5", "key=value"},
	}
	for _, c := range cases {
		_, err := ParseSynthetic(c.name)
		if c.bad == "" {
			if err != nil {
				t.Errorf("%q: unexpected error: %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%q: expected error containing %q, got nil", c.name, c.bad)
		} else if !strings.Contains(err.Error(), c.bad) {
			t.Errorf("%q: error %q does not mention %q", c.name, err, c.bad)
		}
	}
}

func TestByNameRejectsNonSynthetic(t *testing.T) {
	if _, err := ByName("no-such-kernel"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

// TestSuiteImmutable is the memoization regression test: mutating a
// returned spec (including its Phases) must not leak into later calls.
func TestSuiteImmutable(t *testing.T) {
	first := Suite()
	firstATAX, err := ByName("ATAX")
	if err != nil {
		t.Fatal(err)
	}

	// Vandalise everything the accessors hand out.
	for i := range first {
		first[i].Name = "corrupted"
		first[i].APKI = -1
		for j := range first[i].Phases {
			first[i].Phases[j].APKI = -999
		}
	}
	firstATAX.Phases[0].WindowLines = -5
	for _, s := range ByClass(LWS) {
		s.Seed = 0
		if len(s.Phases) > 0 {
			s.Phases[0].Frac = -1
		}
	}
	for _, s := range MemoryIntensive() {
		if len(s.Phases) > 0 {
			s.Phases[0].Reuse = -7
		}
	}

	again := Suite()
	if len(again) != 21 {
		t.Fatalf("suite has %d specs, want 21", len(again))
	}
	for _, s := range again {
		if s.Name == "corrupted" || s.APKI < 0 {
			t.Fatalf("suite spec %q mutated through a caller's copy", s.Name)
		}
		for _, p := range s.Phases {
			if p.APKI < 0 || p.Frac < 0 || p.WindowLines < 0 || p.Reuse < 0 {
				t.Fatalf("suite spec %q phases mutated through a caller's copy", s.Name)
			}
		}
	}
	atax, err := ByName("ATAX")
	if err != nil {
		t.Fatal(err)
	}
	if atax.Phases[0].WindowLines != 16 {
		t.Fatalf("ATAX phase mutated: WindowLines = %d", atax.Phases[0].WindowLines)
	}
}
