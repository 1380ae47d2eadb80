// Package service turns the one-shot experiment harness into a
// long-lived concurrent service: job specs name an experiment cell or
// figure, a bounded worker-pool engine executes them, and a
// content-addressed LRU cache makes repeated cells free. cmd/ciaoserve
// exposes the engine over HTTP; cmd/ciaosim reuses the same runner for
// its -json output so both frontends emit identical bytes.
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
// the machine override, which a spec carries as Config. Every field
// changes the simulated result, so every field is part of the cache
// key.
type OptionSpec struct {
	// InstrPerWarp overrides the suite's per-warp budget when non-zero.
	InstrPerWarp uint64 `json:"instr_per_warp,omitempty"`
	// Seed overrides the workload seed when non-zero.
	Seed uint64 `json:"seed,omitempty"`
	// SampleInterval overrides time-series sampling when non-zero.
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

// Experiment names accepted by Spec.Experiment.
const (
	ExpRun        = "run"        // single bench × sched cell
	ExpFig8       = "fig8"       // 7 schedulers × 21 benchmarks
	ExpFig1b      = "fig1b"      // Backprop: Best-SWL vs CCWS
	ExpFig4       = "fig4"       // interference skew
	ExpFig9       = "fig9"       // ATAX/Backprop time series
	ExpFig10      = "fig10"      // SYRK/KMN time series
	ExpFig11a     = "fig11a"     // epoch sensitivity
	ExpFig11b     = "fig11b"     // cutoff sensitivity
	ExpFig12a     = "fig12a"     // L1D configuration study
	ExpFig12b     = "fig12b"     // DRAM bandwidth study
	ExpTimeSeries = "timeseries" // arbitrary bench × schedulers trace
	ExpOverhead   = "overhead"   // §V-F hardware cost model
)

// Experiments lists the accepted experiment names in display order.
func Experiments() []string {
	return []string{
		ExpRun, ExpFig8, ExpFig1b, ExpFig4, ExpFig9, ExpFig10,
		ExpFig11a, ExpFig11b, ExpFig12a, ExpFig12b, ExpTimeSeries, ExpOverhead,
	}
}

// Spec identifies one experiment request. Equal specs address equal
// results, so Key() doubles as the result-cache key.
type Spec struct {
	// Experiment is one of the Exp* names.
	Experiment string `json:"experiment"`
	// Bench names the benchmark for "run" and "timeseries".
	Bench string `json:"bench,omitempty"`
	// Sched names the scheduler for "run".
	Sched string `json:"sched,omitempty"`
	// Schedulers names the traced schedulers for "timeseries".
	Schedulers []string `json:"schedulers,omitempty"`
	// Options tune the simulation.
	Options OptionSpec `json:"options,omitempty"`
	// Config reshapes the machine/controller for "run" cells (sweep
	// cells use this to explore non-default configurations).
	Config *harness.Override `json:"config,omitempty"`
}

// Validate checks the spec against the known experiments, benchmarks
// and schedulers so bad requests fail before a worker slot is taken.
func (s Spec) Validate() error {
	switch s.Experiment {
	case ExpRun:
		if _, err := workload.ByName(s.Bench); err != nil {
			return err
		}
		if _, err := harness.SchedulerByName(s.Sched); err != nil {
			return err
		}
		if s.Config != nil {
			if err := s.Config.Validate(); err != nil {
				return err
			}
		}
	case ExpTimeSeries:
		if _, err := workload.ByName(s.Bench); err != nil {
			return err
		}
		if len(s.Schedulers) == 0 {
			return fmt.Errorf("service: timeseries needs at least one scheduler")
		}
		for _, name := range s.Schedulers {
			if _, err := harness.SchedulerByName(name); err != nil {
				return err
			}
		}
		if s.Config != nil {
			if err := s.Config.Validate(); err != nil {
				return err
			}
		}
	case ExpFig8, ExpFig1b, ExpFig4, ExpFig9, ExpFig10,
		ExpFig11a, ExpFig11b, ExpFig12a, ExpFig12b, ExpOverhead:
		// No per-cell fields. Figures fix their own configurations, so
		// an override would silently not apply — reject it instead.
		if s.Config != nil && !s.Config.IsZero() {
			return fmt.Errorf("service: config overrides only apply to %q cells", ExpRun)
		}
	default:
		return fmt.Errorf("service: unknown experiment %q (want one of %s)",
			s.Experiment, strings.Join(Experiments(), ", "))
	}
	return nil
}

// Key returns the content address of the spec: a SHA-256 over its
// canonical JSON. Fields irrelevant to the named experiment are zeroed
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
	// Synthetic benchmarks canonicalise their descriptor (full key set,
	// fixed order), so every spelling of the same generated workload
	// shares one content address. Unparseable names pass through: they
	// fail Validate anyway, and Key must stay total.
	if workload.IsSynthetic(s.Bench) {
		if cn, err := workload.CanonicalSynthetic(s.Bench); err == nil {
			s.Bench = cn
		}
	}
	switch s.Experiment {
	case ExpRun:
		s.Schedulers = nil
	case ExpTimeSeries:
		s.Sched = ""
		sorted := append([]string(nil), s.Schedulers...)
		sort.Strings(sorted)
		s.Schedulers = sorted
	case ExpOverhead:
		// The cost model takes no options at all.
		s = Spec{Experiment: ExpOverhead}
	default:
		s.Bench, s.Sched, s.Schedulers, s.Config = "", "", nil, nil
	}
	// A present-but-empty override is the baseline machine; give both
	// forms the same content address.
	if s.Config != nil && s.Config.IsZero() {
		s.Config = nil
	}
	return s
}
