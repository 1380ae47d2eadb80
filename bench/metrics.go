package main

import (
	"fmt"
	"sort"
	"strings"
)

// metricDef is one metric the benchmark publishes: its name, unit and
// which direction is an improvement. Bounds live in BENCHMARK.json,
// derived from STABILITY.md.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the simulator or server waits on.
// Every workload reports all of them; README.md defines each per
// workload (an "op" is a Fig 8 regeneration, a sweep cell, or a /run
// request).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"miss_p50_ms", "ms", "lower"},
	{"max_rss_mb", "MB", "lower"},
}

// layers are the host-time attribution buckets of the CPU profile.
var layers = []string{
	"workload", "sm", "sched", "core", "cache", "sharedmem", "memory",
	"l2", "dram", "harness", "service", "sweep", "json", "runtime_gc", "other",
}

// perLayer are the metrics of single layers, reported by the traced
// run. Simulated counts repeat exactly for a seed; host times do not.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"sm.issue_frac", "frac", "higher"},
		{"sm.struct_stall_frac", "frac", "lower"},
		{"sm.idle_frac", "frac", "lower"},
		{"sm.deadlock_frees", "count", "lower"},
		{"cache.l1_accesses_pki", "1/kinstr", "lower"},
		{"cache.l1_hit_rate", "frac", "higher"},
		{"cache.vta_hits_pki", "1/kinstr", "lower"},
		{"sharedmem.accesses_pki", "1/kinstr", "higher"},
		{"sharedmem.hit_rate", "frac", "higher"},
		{"sharedmem.util", "frac", "higher"},
		{"l2.misses_pki", "1/kinstr", "lower"},
		{"dram.reads_pki", "1/kinstr", "lower"},
		{"dram.writes_pki", "1/kinstr", "lower"},
		{"dram.row_hit_rate", "frac", "higher"},
		{"dram.bus_util", "frac", "lower"},
		{"core.ciaoc_over_gto", "ratio", "higher"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "frac", "lower"})
	}
	return append(defs,
		metricDef{"service.execute_ms_p50", "ms", "lower"},
		metricDef{"service.execute_ms_p95", "ms", "lower"},
		metricDef{"sm.cpu_ns_per_cycle", "ns", "lower"},
		metricDef{"sm.minstr_per_cpu_s", "Minstr/s", "higher"},
		metricDef{"runtime.allocs_per_cell", "count", "lower"},
		metricDef{"trace.overhead_frac", "frac", "lower"},
	)
}()

// sample is one measured value with its unit and the number of
// observations behind it.
type sample struct {
	Value float64
	Unit  string
	N     int
}

// report collects everything one workload run measured: the published
// metrics plus diagnostics that apply to that workload only, and the
// tally of attempted and failed operations and checks.
type report struct {
	Workload  string
	Metrics   map[string]sample
	Attempted int
	Failed    int
	Problems  []string
}

func newReport(workload string) *report {
	return &report{Workload: workload, Metrics: map[string]sample{}}
}

func (r *report) set(name, unit string, v float64, n int) {
	if err := validName(name); err != nil {
		panic(err) // names are built from constants
	}
	r.Metrics[name] = sample{Value: v, Unit: unit, N: n}
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Problems = append(r.Problems, err.Error())
	}
}

// check counts one correctness check.
func (r *report) check(ok bool, format string, args ...any) {
	r.Attempted++
	if !ok {
		r.Failed++
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

// published returns the metrics of defs, failing when one was not
// measured (a bug in the workload, never a property of the input).
func (r *report) published(defs []metricDef) (map[string]sample, error) {
	out := make(map[string]sample, len(defs))
	var missing []string
	for _, d := range defs {
		s, ok := r.Metrics[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		if s.Unit != d.Unit {
			return nil, fmt.Errorf("bench: %s measured in %s, published in %s", d.Name, s.Unit, d.Unit)
		}
		out[d.Name] = s
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("bench: workload %s did not measure %s", r.Workload, strings.Join(missing, ", "))
	}
	return out, nil
}

// lines renders every measured value, published or diagnostic, one per
// line with its unit and sample count.
func (r *report) lines() []string {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, 0, len(names))
	for _, n := range names {
		s := r.Metrics[n]
		out = append(out, fmt.Sprintf("%-14s %-28s %14.6g %-9s n=%d", r.Workload, n, s.Value, s.Unit, s.N))
	}
	return out
}
