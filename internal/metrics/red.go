package metrics

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the RED (requests / errors / duration) layer: the
// request path pays a handful of atomic adds and nothing else — no
// locks, no allocation, no aggregation — while the *reading* caller
// (/metrics) pays the whole cost of turning raw bucket counts into
// rates and quantiles. Duration lands in fixed latency-bound buckets,
// so a percentile estimate is a read-time walk over at most
// redBuckets counters.

// redBoundsNS are the upper bounds (inclusive, in nanoseconds) of the
// duration histogram buckets, spanning sub-millisecond probes
// (/healthz) through multi-second simulation cells. A final implicit
// +Inf bucket catches everything beyond the last bound.
var redBoundsNS = [...]int64{
	100_000,        // 100µs
	250_000,        // 250µs
	500_000,        // 500µs
	1_000_000,      // 1ms
	2_500_000,      // 2.5ms
	5_000_000,      // 5ms
	10_000_000,     // 10ms
	25_000_000,     // 25ms
	50_000_000,     // 50ms
	100_000_000,    // 100ms
	250_000_000,    // 250ms
	500_000_000,    // 500ms
	1_000_000_000,  // 1s
	2_500_000_000,  // 2.5s
	5_000_000_000,  // 5s
	10_000_000_000, // 10s
}

// RedBuckets is the bucket count including the +Inf overflow bucket.
const RedBuckets = len(redBoundsNS) + 1

// RedBoundsSeconds returns the histogram bounds in seconds (for
// exposition formats that label buckets by bound).
func RedBoundsSeconds() []float64 {
	out := make([]float64, len(redBoundsNS))
	for i, b := range redBoundsNS {
		out[i] = float64(b) / 1e9
	}
	return out
}

// redStripes spreads hot writes across several copies of the counters
// so concurrent requests on different cores do not all bounce the same
// cache line. The stripe is picked from low duration bits — free
// timing jitter — and the reader sums all stripes.
const (
	redStripes    = 4
	redStripeMask = redStripes - 1
)

// redStripe is one copy of a series' counters. The trailing pad keeps
// adjacent stripes from sharing a cache line.
type redStripe struct {
	requests   atomic.Uint64
	errors     atomic.Uint64
	shed       atomic.Uint64
	bytes      atomic.Uint64
	durationNS atomic.Uint64
	buckets    [RedBuckets]atomic.Uint64
	_          [64]byte
}

// Series is one labeled RED stream (an HTTP route class, a sweep id).
// The zero value is ready to use. All methods are safe for concurrent
// use; Observe is lock-free and allocation-free.
type Series struct {
	stripes [redStripes]redStripe
}

// bucketIndex maps a duration to its histogram bucket. Linear scan: the
// bounds array is tiny, in cache, and fast requests exit early.
func bucketIndex(ns int64) int {
	for i, b := range redBoundsNS {
		if ns <= b {
			return i
		}
	}
	return len(redBoundsNS) // +Inf
}

// Observe records one completed request: its duration and whether it
// failed. This is the hot path — a few atomic adds, nothing else.
func (s *Series) Observe(d time.Duration, isErr bool) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	st := &s.stripes[(uint64(ns)>>6)&redStripeMask]
	st.requests.Add(1)
	st.durationNS.Add(uint64(ns))
	st.buckets[bucketIndex(ns)].Add(1)
	if isErr {
		st.errors.Add(1)
	}
}

// AddBytes accumulates response payload bytes for the series.
func (s *Series) AddBytes(n int64) {
	if n > 0 {
		s.stripes[0].bytes.Add(uint64(n))
	}
}

// CountShed records an admission-control rejection (429: accept queue
// or engine queue full). The rejection response itself still flows
// through Observe, so shed requests appear in both the request count
// and here.
func (s *Series) CountShed() { s.stripes[0].shed.Add(1) }

// Totals returns the raw monotonic counters, summed across stripes.
// Each counter is individually consistent (atomic); the set is a
// near-point-in-time view, not a transaction.
func (s *Series) Totals() (requests, errors, shed, bytes, durationNS uint64) {
	for i := range s.stripes {
		st := &s.stripes[i]
		requests += st.requests.Load()
		errors += st.errors.Load()
		shed += st.shed.Load()
		bytes += st.bytes.Load()
		durationNS += st.durationNS.Load()
	}
	return
}

// BucketCounts returns the per-bucket observation counts summed across
// stripes (not cumulative; the caller accumulates for exposition).
func (s *Series) BucketCounts() [RedBuckets]uint64 {
	var out [RedBuckets]uint64
	for i := range s.stripes {
		for j := range out {
			out[j] += s.stripes[i].buckets[j].Load()
		}
	}
	return out
}

// SeriesSnapshot is a read-time aggregation of one series: totals plus
// latency quantiles estimated from the bucket histogram.
type SeriesSnapshot struct {
	Requests uint64  `json:"requests"`
	Errors   uint64  `json:"errors"`
	Shed     uint64  `json:"shed,omitempty"`
	Bytes    uint64  `json:"bytes,omitempty"`
	MeanMS   float64 `json:"mean_ms"`
	P50MS    float64 `json:"p50_ms"`
	P95MS    float64 `json:"p95_ms"`
	P99MS    float64 `json:"p99_ms"`
}

// Snapshot aggregates the series: this is where all the math the hot
// path skipped actually happens.
func (s *Series) Snapshot() SeriesSnapshot {
	req, errs, shed, bytes, dur := s.Totals()
	counts := s.BucketCounts()
	snap := SeriesSnapshot{
		Requests: req,
		Errors:   errs,
		Shed:     shed,
		Bytes:    bytes,
	}
	if req > 0 {
		snap.MeanMS = float64(dur) / float64(req) / 1e6
	}
	snap.P50MS = float64(QuantileFromBuckets(counts[:], 0.50)) / float64(time.Millisecond)
	snap.P95MS = float64(QuantileFromBuckets(counts[:], 0.95)) / float64(time.Millisecond)
	snap.P99MS = float64(QuantileFromBuckets(counts[:], 0.99)) / float64(time.Millisecond)
	return snap
}

// QuantileFromBuckets estimates the q-th quantile (0 < q < 1) of the
// duration distribution held in per-bucket counts (RedBuckets long,
// matching redBoundsNS + the +Inf bucket), interpolating linearly
// within a bucket. Observations in the +Inf bucket clamp to the last
// finite bound. Zero observations estimate zero.
func QuantileFromBuckets(counts []uint64, q float64) time.Duration {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	lo := int64(0)
	for i, c := range counts {
		if c == 0 {
			continue
		}
		hi := int64(0)
		if i < len(redBoundsNS) {
			hi = redBoundsNS[i]
		} else {
			// +Inf bucket: no upper bound to interpolate toward.
			return time.Duration(redBoundsNS[len(redBoundsNS)-1])
		}
		if i > 0 {
			lo = redBoundsNS[i-1]
		}
		next := cum + float64(c)
		if next >= rank {
			frac := (rank - cum) / float64(c)
			return time.Duration(float64(lo) + float64(hi-lo)*frac)
		}
		cum = next
	}
	return time.Duration(redBoundsNS[len(redBoundsNS)-1])
}

// RED is a registry of named series — per-endpoint for the HTTP layer,
// per-sweep for the cell layer. Lookup of an existing series is a
// single lock-free map load; creation (rare) takes a mutex. Distinct
// names are capped so an unbounded label (a client-supplied id) cannot
// grow memory forever: past the cap, new names share one overflow
// series.
type RED struct {
	series sync.Map // string → *Series
	mu     sync.Mutex
	count  int
	max    int
}

// RedOverflow is the series name absorbing observations past the
// registry's distinct-name cap.
const RedOverflow = "_overflow"

// defaultMaxSeries bounds distinct series per registry.
const defaultMaxSeries = 512

// NewRED builds a registry.
func NewRED() *RED { return &RED{max: defaultMaxSeries} }

// Series returns the named series, creating it on first use.
func (r *RED) Series(name string) *Series {
	if v, ok := r.series.Load(name); ok {
		return v.(*Series)
	}
	r.mu.Lock()
	if v, ok := r.series.Load(name); ok {
		r.mu.Unlock()
		return v.(*Series)
	}
	if r.count >= r.max && name != RedOverflow {
		r.mu.Unlock()
		return r.Series(RedOverflow)
	}
	s := &Series{}
	r.series.Store(name, s)
	r.count++
	r.mu.Unlock()
	return s
}

// Names returns every registered series name, sorted, for stable
// exposition output.
func (r *RED) Names() []string {
	var names []string
	r.series.Range(func(k, _ any) bool {
		names = append(names, k.(string))
		return true
	})
	sort.Strings(names)
	return names
}

// Snapshot aggregates every series, keyed by name.
func (r *RED) Snapshot() map[string]SeriesSnapshot {
	out := map[string]SeriesSnapshot{}
	r.series.Range(func(k, v any) bool {
		out[k.(string)] = v.(*Series).Snapshot()
		return true
	})
	return out
}
