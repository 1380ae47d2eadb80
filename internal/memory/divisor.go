package memory

import "math/bits"

// Divisor divides by a constant fixed at run time without a hardware
// divide: a multiply-high by the precomputed reciprocal ⌊(2⁶⁴−1)/d⌋
// yields the quotient or one less, and one compare-and-correct step
// makes it exact. The hierarchy's index arithmetic (L2 slice, DRAM
// bank and row, the generator's irregular jump) divides by
// configuration constants on every access, where a 64-bit divide
// costs tens of cycles.
//
// Why one step suffices: with m = ⌊(2⁶⁴−1)/d⌋ = (2⁶⁴−1−e)/d for some
// 0 ≤ e < d, x·m/2⁶⁴ = x/d − x(1+e)/(d·2⁶⁴), and the subtracted term
// lies in [0, 1) because x < 2⁶⁴ and 1+e ≤ d. The estimate is
// therefore ⌊x/d⌋ or ⌊x/d⌋−1, and the remainder it leaves is below 2d.
type Divisor struct {
	d, m uint64
}

// NewDivisor returns the divisor d. It panics when d is zero.
func NewDivisor(d uint64) Divisor {
	if d == 0 {
		panic("memory: zero divisor")
	}
	return Divisor{d: d, m: ^uint64(0) / d}
}

// DivMod returns x/d and x%d.
func (v Divisor) DivMod(x uint64) (q, r uint64) {
	q, _ = bits.Mul64(x, v.m)
	r = x - q*v.d
	if r >= v.d {
		q++
		r -= v.d
	}
	return q, r
}
