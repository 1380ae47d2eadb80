package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// percentile returns the p-th percentile (0..100) of sorted by linear
// interpolation between the two closest ranks. sorted must be ascending
// and non-empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailCandidates are the percentiles a tail figure may report, highest
// first.
var tailCandidates = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that still has
// at least ten samples beyond it out of n, so a tail figure never rests
// on a handful of outliers. ok is false when even the median lacks ten.
func tailPercentile(n int) (p float64, ok bool) {
	for _, c := range tailCandidates {
		// Round away float noise: 1000 samples have exactly 10 beyond p99.
		if math.Round(float64(n)*(100-c)/100*1e6)/1e6 >= 10 {
			return c, true
		}
	}
	return 0, false
}

// dist summarises a latency sample: its median and the highest
// percentile tailPercentile allows, with the sample count.
type dist struct {
	N      int
	P50    float64
	TailP  float64 // 0 when n is too small for any tail
	TailV  float64
	sorted []float64
}

func newDist(values []float64) dist {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	d := dist{N: len(s), sorted: s}
	if len(s) == 0 {
		return d
	}
	d.P50 = percentile(s, 50)
	if p, ok := tailPercentile(len(s)); ok {
		d.TailP, d.TailV = p, percentile(s, p)
	}
	return d
}

// at returns percentile p of the sample (0 when empty).
func (d dist) at(p float64) float64 {
	if d.N == 0 {
		return 0
	}
	return percentile(d.sorted, p)
}

// quartiles reproduces Python's statistics.quantiles(values, n=4) with
// its default "exclusive" method, the spread rule the benchmark's
// stability check is stated in. It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	ld := len(s)
	m := ld + 1
	var out [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		out[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return out[0], out[1], out[2]
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether name is a legal metric or workload name.
func validName(name string) error {
	if !metricName.MatchString(name) {
		return fmt.Errorf("bench: invalid metric name %q (want [A-Za-z0-9][A-Za-z0-9_.-]{0,63})", name)
	}
	return nil
}
