// Package service turns the one-shot experiment harness into a
// long-lived concurrent service: job specs name an experiment cell or
// figure, a bounded worker-pool engine executes them, and a
// content-addressed LRU cache makes repeated cells free. cmd/ciaoserve
// exposes the engine over HTTP; cmd/ciaosim builds its payloads through
// an engine too, so its -json output and ciaoserve's are identical
// bytes.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/workload"
)

// OptionSpec is the JSON-addressable form of harness.Options, minus
// the machine override, which a spec carries as Config. InstrPerWarp
// and Seed change every simulated result, so they are part of the
// cache key of every experiment that takes options.
type OptionSpec struct {
	// InstrPerWarp overrides the suite's per-warp budget when non-zero.
	InstrPerWarp uint64 `json:"instr_per_warp,omitempty"`
	// Seed overrides the workload seed when non-zero.
	Seed uint64 `json:"seed,omitempty"`
	// SampleInterval overrides time-series sampling when non-zero. It
	// changes only time series, so it is part of the cache key only of
	// the experiments whose payloads hold them (harness.FieldSamples).
	SampleInterval uint64 `json:"sample_interval,omitempty"`
}

// Options converts to harness.Options.
func (o OptionSpec) Options() harness.Options {
	return harness.Options{
		InstrPerWarp:   o.InstrPerWarp,
		Seed:           o.Seed,
		SampleInterval: o.SampleInterval,
	}
}

// ExpRun and ExpFig8 name the single cell and Figure 8;
// harness.Experiments lists every experiment.
const (
	ExpRun  = harness.ExpRun
	ExpFig8 = harness.ExpFig8
)

// Spec identifies one experiment request. Equal specs address equal
// results, so Key() doubles as the result-cache key.
type Spec struct {
	// Experiment names an entry of the experiment table
	// (harness.Experiments); the entry says which of the fields below
	// it reads.
	Experiment string `json:"experiment"`
	// Bench names the benchmark, e.g. for "run" and "timeseries".
	Bench string `json:"bench,omitempty"`
	// Sched names the scheduler for "run".
	Sched string `json:"sched,omitempty"`
	// Schedulers names the traced schedulers for "timeseries".
	Schedulers []string `json:"schedulers,omitempty"`
	// Options tune the simulation.
	Options OptionSpec `json:"options,omitempty"`
	// Config reshapes the machine/controller for "run" and
	// "timeseries" (sweep cells use this to explore non-default
	// configurations).
	Config *harness.Override `json:"config,omitempty"`
}

// Validate checks the spec against the experiment table, benchmarks
// and schedulers so bad requests fail before a worker slot is taken.
func (s Spec) Validate() error {
	_, err := s.experiment()
	return err
}

// experiment validates the spec and returns its table entry.
func (s Spec) experiment() (harness.Experiment, error) {
	exp, ok := harness.LookupExperiment(s.Experiment)
	if !ok {
		return exp, fmt.Errorf("service: unknown experiment %q (want one of %s)",
			s.Experiment, strings.Join(harness.ExperimentNames(), ", "))
	}
	if exp.Takes(harness.FieldBench) {
		if _, err := workload.ByName(s.Bench); err != nil {
			return exp, err
		}
	}
	if exp.Takes(harness.FieldSched) {
		if _, err := harness.SchedulerByName(s.Sched); err != nil {
			return exp, err
		}
	}
	if exp.Takes(harness.FieldSchedulers) {
		if len(s.Schedulers) == 0 {
			return exp, fmt.Errorf("service: %s needs at least one scheduler", s.Experiment)
		}
		for _, name := range s.Schedulers {
			if _, err := harness.SchedulerByName(name); err != nil {
				return exp, err
			}
		}
	}
	if s.Config != nil {
		if exp.Takes(harness.FieldConfig) {
			return exp, s.Config.Validate()
		}
		// Figures fix their own configurations, so an override would
		// silently not apply — reject it instead.
		if !s.Config.IsZero() {
			return exp, fmt.Errorf("service: %s takes no config override", s.Experiment)
		}
	}
	return exp, nil
}

// request is the part of the spec its experiment reads. An experiment
// whose payload holds no time series samples at the default interval
// whatever the spec asks, since nothing reads its samples.
func (s Spec) request() harness.Request {
	opt := s.Options.Options()
	if exp, _ := harness.LookupExperiment(s.Experiment); !exp.Takes(harness.FieldSamples) {
		opt.SampleInterval = 0
	}
	if s.Config != nil {
		opt.Override = *s.Config
	}
	return harness.Request{Bench: s.Bench, Sched: s.Sched, Schedulers: s.Schedulers, Options: opt}
}

// Key returns the content address of the spec: a SHA-256 over its
// canonical JSON. Fields the named experiment does not read are zeroed
// first so e.g. {"experiment":"fig8","bench":"SYRK"} and plain fig8
// share a cache entry.
func (s Spec) Key() string {
	c := s.canonical()
	b, err := json.Marshal(c)
	if err != nil {
		// Spec is plain data; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (s Spec) canonical() Spec {
	exp, _ := harness.LookupExperiment(s.Experiment)
	// Synthetic benchmarks canonicalise their descriptor (full key set,
	// fixed order), so every spelling of the same generated workload
	// shares one content address. Unparseable names pass through: they
	// fail Validate anyway, and Key must stay total.
	if !exp.Takes(harness.FieldBench) {
		s.Bench = ""
	} else if workload.IsSynthetic(s.Bench) {
		if cn, err := workload.CanonicalSynthetic(s.Bench); err == nil {
			s.Bench = cn
		}
	}
	if !exp.Takes(harness.FieldSched) {
		s.Sched = ""
	}
	if exp.Takes(harness.FieldSchedulers) {
		sorted := append([]string(nil), s.Schedulers...)
		sort.Strings(sorted)
		s.Schedulers = sorted
	} else {
		s.Schedulers = nil
	}
	if !exp.Takes(harness.FieldOptions) {
		s.Options = OptionSpec{}
	}
	if !exp.Takes(harness.FieldSamples) {
		s.Options.SampleInterval = 0
	}
	// A present-but-empty override is the baseline machine; give both
	// forms the same content address.
	if !exp.Takes(harness.FieldConfig) || (s.Config != nil && s.Config.IsZero()) {
		s.Config = nil
	}
	return s
}
