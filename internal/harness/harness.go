// Package harness drives the paper's experiments: it instantiates
// benchmark × scheduler × configuration cells (each an independent
// single-goroutine simulation) and aggregates the rows/series each
// table and figure of the evaluation reports. Figures that are a grid
// of cells hand them to a CellRunner, which the service engine
// supplies. The experiment table (Experiments) defines every
// experiment once: the fields it reads, how it builds its payload and
// how that payload prints as text.
package harness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sm"
	"repro/internal/workload"
)

// SchedulerFactory names a scheduler and builds fresh controller
// instances (controllers are stateful and single-use).
type SchedulerFactory struct {
	// Name is the display name used in tables.
	Name string
	// New builds a fresh controller.
	New func() sm.Controller
	// NeedsSharedCache enables the CIAO shared-memory cache in the SM
	// configuration.
	NeedsSharedCache bool
}

// Schedulers returns the seven controllers of Figure 8 in paper order:
// GTO, CCWS, Best-SWL, statPCAL, CIAO-T, CIAO-P, CIAO-C.
func Schedulers() []SchedulerFactory {
	return []SchedulerFactory{
		{Name: "GTO", New: func() sm.Controller { return sched.NewGTO() }},
		{Name: "CCWS", New: func() sm.Controller { return sched.NewCCWS() }},
		{Name: "Best-SWL", New: func() sm.Controller { return sched.NewBestSWL(0) }},
		{Name: "statPCAL", New: func() sm.Controller { return sched.NewStatPCAL() }},
		{Name: "CIAO-T", New: func() sm.Controller { return core.NewT() }},
		{Name: "CIAO-P", New: func() sm.Controller { return core.NewP() }, NeedsSharedCache: true},
		{Name: "CIAO-C", New: func() sm.Controller { return core.NewC() }, NeedsSharedCache: true},
	}
}

// SchedulerByName returns the factory with the given name.
func SchedulerByName(name string) (SchedulerFactory, error) {
	for _, f := range Schedulers() {
		if f.Name == name {
			return f, nil
		}
	}
	return SchedulerFactory{}, fmt.Errorf("harness: unknown scheduler %q", name)
}

// Options control a run.
type Options struct {
	// InstrPerWarp overrides the spec's budget when non-zero.
	InstrPerWarp uint64
	// Seed overrides the spec's seed when non-zero.
	Seed uint64
	// SampleInterval overrides time-series sampling (0 keeps default).
	SampleInterval uint64
	// Override reshapes the machine and the CIAO parameters; the zero
	// value is the Table I baseline.
	Override Override
}

func (o Options) applySpec(spec workload.Spec) workload.Spec {
	if o.InstrPerWarp > 0 {
		spec.InstrPerWarp = o.InstrPerWarp
	}
	if o.Seed != 0 {
		spec.Seed = o.Seed
	}
	if o.Override.WarpsPerSM > 0 {
		spec.NumWarps = o.Override.WarpsPerSM
	}
	return spec
}

func (o Options) buildConfig(f SchedulerFactory) sm.Config {
	cfg := sm.DefaultConfig()
	cfg.EnableSharedCache = f.NeedsSharedCache
	if o.SampleInterval > 0 {
		cfg.SampleInterval = o.SampleInterval
	}
	o.Override.applyConfig(&cfg)
	return cfg
}

// RunOne simulates one benchmark under one scheduler and returns the
// result plus the GPU for post-hoc inspection.
func RunOne(spec workload.Spec, f SchedulerFactory, opt Options) (sm.Result, *sm.GPU, error) {
	spec = opt.applySpec(spec)
	kernel, err := workload.NewKernel(spec)
	if err != nil {
		return sm.Result{}, nil, err
	}
	g, err := sm.NewGPU(opt.buildConfig(f), kernel, opt.Override.controller(f), nil)
	if err != nil {
		return sm.Result{}, nil, err
	}
	r := g.Run()
	r.Scheduler = f.Name
	return r, g, nil
}

// RunCell simulates the named benchmark under the named scheduler and
// returns the result in its JSON form.
func RunCell(bench, sched string, opt Options) (CellResult, error) {
	f, err := SchedulerByName(sched)
	if err != nil {
		return CellResult{}, err
	}
	w, err := workload.ByName(bench)
	if err != nil {
		return CellResult{}, err
	}
	r, g, err := RunOne(w, f, opt)
	if err != nil {
		return CellResult{}, err
	}
	return NewCellResult(bench, r, g.Interference().Total()), nil
}

// Cell identifies one benchmark × scheduler simulation on the machine
// Config describes.
type Cell struct {
	Bench  string
	Sched  string
	Config Override
}

// CellRunner simulates cells and returns their results in cell order.
// Figures built from a grid of cells take one, so the caller decides
// how the cells are scheduled and whether results are reused.
type CellRunner func([]Cell) ([]CellResult, error)

// runGrid runs cells and indexes their results by cell. A cell that
// hit MaxCycles reports the IPC of a cut-short run, which no figure
// may average, so it fails the grid.
func runGrid(run CellRunner, cells []Cell) (map[Cell]CellResult, error) {
	res, err := run(cells)
	if err != nil {
		return nil, err
	}
	out := make(map[Cell]CellResult, len(cells))
	for i, c := range cells {
		if r := res[i]; r.TimedOut {
			cfg := ""
			if !c.Config.IsZero() {
				cfg = fmt.Sprintf(" (config %+v)", c.Config)
			}
			return nil, fmt.Errorf("harness: cell %s/%s%s timed out at %d cycles with %d warps finished",
				c.Bench, c.Sched, cfg, r.Cycles, r.FinishedWarps)
		}
		out[c] = res[i]
	}
	return out, nil
}
