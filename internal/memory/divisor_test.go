package memory

import (
	"math"
	"math/rand"
	"testing"
)

// checkDivMod fails t unless Divisor agrees with / and % on x.
func checkDivMod(t *testing.T, v Divisor, d, x uint64) {
	t.Helper()
	if q, r := v.DivMod(x); q != x/d || r != x%d {
		t.Fatalf("DivMod(%d) by %d = %d,%d, want %d,%d", x, d, q, r, x/d, x%d)
	}
}

func TestDivisor(t *testing.T) {
	divisors := []uint64{1, 2, 3, 6, 16, 1<<32 + 1, math.MaxUint64}
	for _, d := range divisors {
		v := NewDivisor(d)
		for _, x := range []uint64{0, d - 1, d, d + 1, math.MaxUint64} {
			checkDivMod(t, v, d, x)
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		// Spread divisors over every magnitude, not just large ones.
		d := r.Uint64() >> r.Intn(64)
		if d == 0 {
			d = 1
		}
		checkDivMod(t, NewDivisor(d), d, r.Uint64()>>r.Intn(64))
	}
}

func TestDivisorRejectsZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDivisor(0) did not panic")
		}
	}()
	NewDivisor(0)
}

// FuzzDivisor compares DivMod with the hardware / and %.
func FuzzDivisor(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(3), uint64(math.MaxUint64))
	f.Add(uint64(6), uint64(1<<40+5))
	f.Add(uint64(1<<32+1), uint64(math.MaxUint64-1))
	f.Add(uint64(math.MaxUint64), uint64(math.MaxUint64))
	f.Fuzz(func(t *testing.T, d, x uint64) {
		if d == 0 {
			d = 1
		}
		checkDivMod(t, NewDivisor(d), d, x)
	})
}
