// Package metrics collects and summarises simulation statistics: IPC,
// per-interval time series (the Figure 9/10 curves), the inter-warp
// interference matrix (Figure 1a/4a), and the aggregate helpers
// (geometric mean, normalisation) used by the evaluation harness.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Sample is one point of a time-series trace, captured at the end of a
// sampling interval.
type Sample struct {
	// Cycle is the simulation cycle at capture time.
	Cycle uint64 `json:"cycle"`
	// Instructions is the cumulative instruction count at capture time.
	Instructions uint64 `json:"instructions"`
	// IPC is the interval IPC (instructions issued during the interval
	// divided by interval cycles).
	IPC float64 `json:"ipc"`
	// ActiveWarps is the number of non-stalled, non-finished warps.
	ActiveWarps int `json:"active_warps"`
	// Interference is the number of VTA hits during the interval.
	Interference uint64 `json:"interference"`
	// L1HitRate is the interval L1D hit rate.
	L1HitRate float64 `json:"l1_hit_rate"`
}

// TimeSeries accumulates interval samples.
type TimeSeries struct {
	Samples []Sample
}

// Add appends a sample.
func (ts *TimeSeries) Add(s Sample) { ts.Samples = append(ts.Samples, s) }

// Len reports the number of samples.
func (ts *TimeSeries) Len() int { return len(ts.Samples) }

// CSV renders the series with the given series name, one line per
// sample: name,cycle,instructions,ipc,active,interference,l1hit.
func (ts *TimeSeries) CSV(name string) string {
	var b strings.Builder
	for _, s := range ts.Samples {
		fmt.Fprintf(&b, "%s,%d,%d,%.3f,%d,%d,%.4f\n",
			name, s.Cycle, s.Instructions, s.IPC, s.ActiveWarps, s.Interference, s.L1HitRate)
	}
	return b.String()
}

// InterferenceMatrix counts, for each (interfered, interferer) warp
// pair, how many VTA hits named that interferer — the data behind
// Figure 1a's heatmap and Figure 4a's per-warp frequency bars.
type InterferenceMatrix struct {
	n      int
	counts []uint64
}

// NewInterferenceMatrix sizes the matrix for n warps.
func NewInterferenceMatrix(n int) *InterferenceMatrix {
	return &InterferenceMatrix{n: n, counts: make([]uint64, n*n)}
}

// Record notes one interference event: interferer evicted data that
// interfered re-referenced.
func (m *InterferenceMatrix) Record(interfered, interferer int) {
	if interfered < 0 || interfered >= m.n || interferer < 0 || interferer >= m.n {
		return
	}
	m.counts[interfered*m.n+interferer]++
}

// At returns the count for the pair.
func (m *InterferenceMatrix) At(interfered, interferer int) uint64 {
	return m.counts[interfered*m.n+interferer]
}

// N returns the matrix dimension.
func (m *InterferenceMatrix) N() int { return m.n }

// Total returns the sum of all entries.
func (m *InterferenceMatrix) Total() uint64 {
	var t uint64
	for _, c := range m.counts {
		t += c
	}
	return t
}

// MinMaxPerWarp returns, over warps with any interference, the minimum
// and maximum single-pair interference frequency experienced by each
// warp — the Figure 4b summary.
func (m *InterferenceMatrix) MinMaxPerWarp() (min, max []uint64) {
	min = make([]uint64, m.n)
	max = make([]uint64, m.n)
	for i := 0; i < m.n; i++ {
		lo, hi := uint64(math.MaxUint64), uint64(0)
		for j := 0; j < m.n; j++ {
			c := m.At(i, j)
			if c == 0 {
				continue
			}
			if c < lo {
				lo = c
			}
			if c > hi {
				hi = c
			}
		}
		if hi == 0 {
			lo = 0
		}
		min[i], max[i] = lo, hi
	}
	return min, max
}

// Normalized returns the matrix scaled to its maximum entry (the
// Figure 1a colour scale). A zero matrix yields all zeros.
func (m *InterferenceMatrix) Normalized() [][]float64 {
	var peak uint64
	for _, c := range m.counts {
		if c > peak {
			peak = c
		}
	}
	out := make([][]float64, m.n)
	for i := range out {
		out[i] = make([]float64, m.n)
		if peak == 0 {
			continue
		}
		for j := 0; j < m.n; j++ {
			out[i][j] = float64(m.At(i, j)) / float64(peak)
		}
	}
	return out
}

// TopInterferedWarps returns the k warps with the highest suffered
// interference, most-interfered first.
func (m *InterferenceMatrix) TopInterferedWarps(k int) []int {
	idx := make([]int, m.n)
	suffered := make([]uint64, m.n)
	for i := range idx {
		idx[i] = i
		for _, c := range m.counts[i*m.n : (i+1)*m.n] {
			suffered[i] += c
		}
	}
	sort.Slice(idx, func(a, b int) bool {
		return suffered[idx[a]] > suffered[idx[b]]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// GeoMean returns the geometric mean of positive values; zero and
// negative entries are skipped (matching how the paper aggregates
// normalised IPCs).
func GeoMean(vals []float64) float64 {
	sum, n := 0.0, 0
	for _, v := range vals {
		if v <= 0 {
			continue
		}
		sum += math.Log(v)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table is a minimal fixed-width text table used by the CLI and the
// benchmark harness to print paper-style rows.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
