// Package sweep is the declarative parameter-sweep engine: a JSON spec
// names axes over schedulers, benchmarks (or whole classes) and machine
// configuration overrides; the cross product (plus any explicit points)
// expands into "run" cells that execute through the service engine, so
// the content-addressed cache and in-flight coalescing apply per cell.
// Results append to an on-disk NDJSON store with a manifest, which is
// what makes a killed sweep resumable: reopening the store yields the
// completed cell set and the runner skips it.
package sweep

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/workload"
)

// Cell-count caps: DefaultMaxCells applies when the spec does not set
// max_cells; MaxCellsCeiling binds even explicit requests so a typo
// cannot enqueue an unbounded grid.
const (
	DefaultMaxCells = 2048
	MaxCellsCeiling = 1 << 16
)

// Config is one point on the configuration axis: a display name plus
// the machine/controller overrides it stands for.
type Config struct {
	// Name labels the configuration in results ("l1-32k"); empty names
	// derive from the position ("cfg0").
	Name string `json:"name,omitempty"`
	// Requires is parsed and ignored: older specs listed worker
	// capability tags here, and strict decoding must still accept them.
	Requires []string `json:"requires,omitempty"`
	harness.Override
}

// Point is one explicitly enumerated cell, for sweeps that are not
// full grids.
type Point struct {
	Bench string `json:"bench"`
	Sched string `json:"sched"`
	// Config optionally reshapes this point's machine.
	Config *Config `json:"config,omitempty"`
	// Options override the sweep-level options for this point.
	Options *service.OptionSpec `json:"options,omitempty"`
}

// Axes define a cross product. Empty scheduler/benchmark axes default
// to everything (all seven schedulers, the full 21-benchmark suite);
// an empty config axis is the baseline Table I machine.
type Axes struct {
	// Schedulers axis (names from harness.Schedulers).
	Schedulers []string `json:"schedulers,omitempty"`
	// Benchmarks axis (names from Table II).
	Benchmarks []string `json:"benchmarks,omitempty"`
	// Classes adds whole benchmark classes (LWS, SWS, CI) to the
	// benchmark axis.
	Classes []string `json:"classes,omitempty"`
	// Configs axis (machine/controller overrides).
	Configs []Config `json:"configs,omitempty"`
}

// Spec is a declarative sweep: the grid to explore, explicit extra
// points, base simulation options, and a safety cap.
type Spec struct {
	// Name identifies the sweep (used in store manifests and IDs).
	Name string `json:"name"`
	// Axes define the cross product; may be empty when Points is not.
	Axes Axes `json:"axes"`
	// Points appends explicit cells after the grid.
	Points []Point `json:"points,omitempty"`
	// Options apply to every cell (instr budget, seed, sampling).
	Options service.OptionSpec `json:"options,omitempty"`
	// MaxCells caps the expansion (0 = DefaultMaxCells; hard ceiling
	// MaxCellsCeiling).
	MaxCells int `json:"max_cells,omitempty"`
	// Distributed and Requires are parsed and ignored: older specs asked
	// for a multi-host run and worker capability tags with them. Every
	// sweep runs in-process; strict decoding must still accept them, and
	// Key zeroes them so such specs keep their store directory.
	Distributed bool     `json:"distributed,omitempty"`
	Requires    []string `json:"requires,omitempty"`
}

// Cell is one expanded simulation: its position in the sweep, its
// labels, and the service spec that executes (and content-addresses)
// it.
type Cell struct {
	Index  int          `json:"index"`
	Bench  string       `json:"bench"`
	Sched  string       `json:"sched"`
	Config string       `json:"config,omitempty"`
	Spec   service.Spec `json:"spec"`
}

// Key returns the cell's content address — the underlying service
// spec's key, so two cells that simulate identical machines are the
// same cell no matter how their configs are labelled.
func (c Cell) Key() string { return c.Spec.Key() }

// Key content-addresses the whole sweep spec; the store manifest pins
// it so -resume cannot mix results from different sweeps. The ignored
// Distributed and Requires fields are not part of the result's
// identity, so they are zeroed first (deep-copying the slices they
// live in, so the caller's spec is untouched): an older spec that
// still carries them shares one store with the same grid without them.
func (s Spec) Key() string {
	s.Distributed = false
	s.Requires = nil
	if len(s.Axes.Configs) > 0 {
		configs := append([]Config(nil), s.Axes.Configs...)
		for i := range configs {
			configs[i].Requires = nil
		}
		s.Axes.Configs = configs
	}
	if len(s.Points) > 0 {
		points := append([]Point(nil), s.Points...)
		for i := range points {
			if points[i].Config != nil && len(points[i].Config.Requires) > 0 {
				cfg := *points[i].Config
				cfg.Requires = nil
				points[i].Config = &cfg
			}
		}
		s.Points = points
	}
	b, err := json.Marshal(s)
	if err != nil {
		// Spec is plain data; Marshal cannot fail.
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func (s Spec) maxCells() int {
	switch {
	case s.MaxCells <= 0:
		return DefaultMaxCells
	case s.MaxCells > MaxCellsCeiling:
		return MaxCellsCeiling
	default:
		return s.MaxCells
	}
}

func classByName(name string) (workload.Class, error) {
	for _, c := range []workload.Class{workload.LWS, workload.SWS, workload.CI} {
		if c.String() == name {
			return c, nil
		}
	}
	return 0, fmt.Errorf("sweep: unknown benchmark class %q (want LWS, SWS or CI)", name)
}

// benches resolves the benchmark axis: explicit names first, then
// class members not already present, suite order within each class;
// both empty means the full suite.
func (a Axes) benches() ([]string, error) {
	seen := map[string]bool{}
	var out []string
	add := func(name string) {
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	for _, name := range a.Benchmarks {
		if _, err := workload.ByName(name); err != nil {
			return nil, err
		}
		add(name)
	}
	for _, cls := range a.Classes {
		c, err := classByName(cls)
		if err != nil {
			return nil, err
		}
		for _, spec := range workload.ByClass(c) {
			add(spec.Name)
		}
	}
	if len(out) == 0 {
		for _, spec := range workload.Suite() {
			add(spec.Name)
		}
	}
	return out, nil
}

func (a Axes) scheds() ([]string, error) {
	if len(a.Schedulers) == 0 {
		var out []string
		for _, f := range harness.Schedulers() {
			out = append(out, f.Name)
		}
		return out, nil
	}
	for _, name := range a.Schedulers {
		if _, err := harness.SchedulerByName(name); err != nil {
			return nil, err
		}
	}
	return a.Schedulers, nil
}

func (c Config) name(i int) string {
	if c.Name != "" {
		return c.Name
	}
	return fmt.Sprintf("cfg%d", i)
}

// cellSpec builds the service spec for one (bench, sched, config,
// options) combination.
func cellSpec(bench, sched string, cfg *Config, opts service.OptionSpec) service.Spec {
	spec := service.Spec{
		Experiment: service.ExpRun,
		Bench:      bench,
		Sched:      sched,
		Options:    opts,
	}
	if cfg != nil && !cfg.Override.IsZero() {
		ov := cfg.Override
		spec.Config = &ov
	}
	return spec
}

// Expand materialises the sweep: the axes' cross product in
// config-major order (all cells of one configuration are adjacent, so
// per-config aggregation streams), followed by explicit points. Cells
// that content-address identically are deduplicated — they would
// coalesce in the engine anyway and would double-count in geomeans.
func (s Spec) Expand() ([]Cell, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("sweep: spec needs a name")
	}
	if s.MaxCells < 0 {
		return nil, fmt.Errorf("sweep %s: negative max_cells", s.Name)
	}
	benches, err := s.Axes.benches()
	if err != nil {
		return nil, err
	}
	scheds, err := s.Axes.scheds()
	if err != nil {
		return nil, err
	}
	configs := s.Axes.Configs
	if len(configs) == 0 {
		configs = []Config{{}}
	}

	grid := len(benches) * len(scheds) * len(configs)
	max := s.maxCells()
	if total := grid + len(s.Points); total > max {
		return nil, fmt.Errorf("sweep %s: %d cells (%d benches × %d schedulers × %d configs + %d points) exceed the cap of %d",
			s.Name, total, len(benches), len(scheds), len(configs), len(s.Points), max)
	}

	var cells []Cell
	seen := map[string]bool{}
	add := func(bench, sched, cfgName string, spec service.Spec) error {
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("sweep %s: cell %s/%s/%s: %w", s.Name, bench, sched, cfgName, err)
		}
		key := spec.Key()
		if seen[key] {
			return nil
		}
		seen[key] = true
		cells = append(cells, Cell{
			Index:  len(cells),
			Bench:  bench,
			Sched:  sched,
			Config: cfgName,
			Spec:   spec,
		})
		return nil
	}

	for i := range configs {
		cfg := configs[i]
		cfgName := cfg.name(i)
		if len(s.Axes.Configs) == 0 {
			// Implicit baseline axis: no config label on its cells.
			cfgName = ""
		}
		for _, bench := range benches {
			for _, sched := range scheds {
				if err := add(bench, sched, cfgName, cellSpec(bench, sched, &cfg, s.Options)); err != nil {
					return nil, err
				}
			}
		}
	}
	for i, p := range s.Points {
		opts := s.Options
		if p.Options != nil {
			opts = *p.Options
		}
		cfgName := ""
		if p.Config != nil {
			cfgName = p.Config.name(len(s.Axes.Configs) + i)
		}
		if err := add(p.Bench, p.Sched, cfgName, cellSpec(p.Bench, p.Sched, p.Config, opts)); err != nil {
			return nil, err
		}
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("sweep %s: expands to zero cells", s.Name)
	}
	return cells, nil
}
