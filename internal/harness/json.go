package harness

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/metrics"
	"repro/internal/sm"
	"repro/internal/workload"
)

// This file gives every figure/table result a stable JSON encoding so
// results can be cached byte-for-byte, served over HTTP, and diffed
// across runs. Map keys are strings (encoding/json emits them sorted),
// class keys use the paper's class names, and swept parameter values
// are formatted with strconv 'g' so 0.005 round-trips exactly.

func classKeys[V any](in map[workload.Class]V) map[string]V {
	out := make(map[string]V, len(in))
	for c, v := range in {
		out[c.String()] = v
	}
	return out
}

// FormatValue renders a swept parameter value as its JSON map key.
func FormatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// MarshalJSON implements json.Marshaler.
func (r *Fig8Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Benchmarks     []string                      `json:"benchmarks"`
		Schedulers     []string                      `json:"schedulers"`
		Normalized     map[string]map[string]float64 `json:"normalized_ipc"`
		ClassGeoMean   map[string]map[string]float64 `json:"class_geomean"`
		OverallGeoMean map[string]float64            `json:"overall_geomean"`
		SharedUtil     map[string]float64            `json:"shared_util"`
	}{
		Benchmarks:     r.Benchmarks,
		Schedulers:     r.Schedulers,
		Normalized:     r.Normalized,
		ClassGeoMean:   classKeys(r.ClassGeoMean),
		OverallGeoMean: r.OverallGeoMean,
		SharedUtil:     classKeys(r.SharedUtil),
	})
}

// MarshalJSON implements json.Marshaler.
func (r *Fig1bResult) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		IPC         map[string]float64 `json:"ipc"`
		HitRate     map[string]float64 `json:"l1_hit_rate"`
		ActiveWarps map[string]float64 `json:"active_warps"`
	}{r.IPC, r.HitRate, r.ActiveWarps})
}

// MarshalJSON implements json.Marshaler.
func (r *Fig4Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Bench          string               `json:"bench"`
		FocusWarp      int                  `json:"focus_warp"`
		PerInterferer  []uint64             `json:"per_interferer"`
		WorkloadMinMax map[string][2]uint64 `json:"workload_min_max"`
	}{r.Bench, r.FocusWarp, r.PerInterferer, r.WorkloadMinMax})
}

// MarshalJSON implements json.Marshaler.
func (s *TimeSeriesSet) MarshalJSON() ([]byte, error) {
	series := make(map[string][]metrics.Sample, len(s.Series))
	for name, ts := range s.Series {
		if ts != nil {
			series[name] = ts.Samples
		}
	}
	return json.Marshal(struct {
		Bench  string                      `json:"bench"`
		Series map[string][]metrics.Sample `json:"series"`
	}{s.Bench, series})
}

// MarshalJSON implements json.Marshaler: one TimeSeriesSet per
// benchmark, keyed by benchmark.
func (f *SeriesSets) MarshalJSON() ([]byte, error) {
	sets := make(map[string]*TimeSeriesSet, len(f.Sets))
	for _, s := range f.Sets {
		sets[s.Bench] = s
	}
	return json.Marshal(sets)
}

// MarshalJSON implements json.Marshaler. Values keeps the sweep order;
// Normalized is keyed by FormatValue(value).
func (r *SensitivityResult) MarshalJSON() ([]byte, error) {
	norm := make(map[string]map[string]float64, len(r.Normalized))
	for v, row := range r.Normalized {
		norm[FormatValue(v)] = row
	}
	return json.Marshal(struct {
		Values     []float64                     `json:"values"`
		Normalized map[string]map[string]float64 `json:"normalized_ipc"`
	}{r.Values, norm})
}

// MarshalJSON implements json.Marshaler.
func (r *Fig12Result) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		Configs    []string                      `json:"configs"`
		Normalized map[string]map[string]float64 `json:"normalized_ipc"`
		GeoMean    map[string]float64            `json:"geomean"`
	}{r.Configs, r.Normalized, r.GeoMean})
}

// CellResult is the JSON form of a single benchmark × scheduler run.
type CellResult struct {
	Bench          string  `json:"bench"`
	Sched          string  `json:"sched"`
	IPC            float64 `json:"ipc"`
	Cycles         uint64  `json:"cycles"`
	Instructions   uint64  `json:"instructions"`
	L1HitRate      float64 `json:"l1_hit_rate"`
	L1Accesses     uint64  `json:"l1_accesses"`
	VTAHits        uint64  `json:"vta_hits"`
	SharedHitRate  float64 `json:"shared_hit_rate"`
	SharedAccesses uint64  `json:"shared_accesses"`
	SharedUtil     float64 `json:"shared_util"`
	Interference   uint64  `json:"interference_events"`
	FinishedWarps  int     `json:"finished_warps"`
	TimedOut       bool    `json:"timed_out"`
}

// RelabelCell returns the encoded CellResult payload of a cell run
// under scheduler from as the cell of scheduler to: the bytes
// json.Marshal gives for the same result with Sched set to to.
// Scheduler names are letters, digits and dashes, which JSON writes
// unescaped, and an encoded bench name holds no bare quote, so the
// first ,"sched":" opens the field. A payload whose field does not
// name from is returned as it is.
func RelabelCell(payload []byte, from, to string) []byte {
	const field = `,"sched":"`
	i := bytes.Index(payload, []byte(field))
	if i < 0 {
		return payload
	}
	i += len(field)
	end := i + len(from)
	if end >= len(payload) || string(payload[i:end]) != from || payload[end] != '"' {
		return payload
	}
	out := make([]byte, 0, len(payload)-len(from)+len(to))
	return append(append(append(out, payload[:i]...), to...), payload[end:]...)
}

// NewCellResult flattens an sm.Result (plus the GPU's interference
// total) into its JSON form.
func NewCellResult(bench string, r sm.Result, interference uint64) CellResult {
	return CellResult{
		Bench:          bench,
		Sched:          r.Scheduler,
		IPC:            r.IPC,
		Cycles:         r.Cycles,
		Instructions:   r.Instructions,
		L1HitRate:      r.L1.HitRate(),
		L1Accesses:     r.L1.Accesses,
		VTAHits:        r.VTAHits,
		SharedHitRate:  r.SharedStats.HitRate(),
		SharedAccesses: r.SharedStats.Accesses,
		SharedUtil:     r.SharedUtil,
		Interference:   interference,
		FinishedWarps:  r.FinishedWarps,
		TimedOut:       r.TimedOut,
	}
}
