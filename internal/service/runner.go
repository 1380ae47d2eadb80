package service

import (
	"encoding/json"
	"fmt"

	"repro/internal/harness"
	"repro/internal/overhead"
)

// Execute runs the experiment named by spec to completion and returns
// its stable JSON encoding. It is a pure function of the spec and is
// shared by the engine, the ciaoserve handlers and ciaosim -json. A
// matrix figure runs its cells through an engine of its own, which
// ends with the call, so nothing is cached across calls.
func Execute(spec Spec) ([]byte, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if matrixFigures[spec.Experiment] != nil {
		payload, _, err := NewEngine(Config{}).Run(spec)
		return payload, err
	}
	v, err := execute(spec)
	if err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// matrixFigures are the figures that are a fixed grid of cells plus an
// aggregation over the cells' results; the engine runs their cells as
// ordinary "run" specs.
var matrixFigures = map[string]func(harness.CellRunner) (any, error){
	ExpFig8: func(run harness.CellRunner) (any, error) { return harness.RunFig8(run) },
	ExpFig11a: func(run harness.CellRunner) (any, error) {
		return harness.RunEpochSensitivity([]uint64{1000, 5000, 10000, 50000}, run)
	},
	ExpFig11b: func(run harness.CellRunner) (any, error) {
		return harness.RunCutoffSensitivity([]float64{0.04, 0.02, 0.01, 0.005}, run)
	},
	ExpFig12a: func(run harness.CellRunner) (any, error) { return harness.RunFig12a(run) },
	ExpFig12b: func(run harness.CellRunner) (any, error) { return harness.RunFig12b(run) },
}

func execute(spec Spec) (any, error) {
	opt := spec.Options.Options()
	if spec.Config != nil {
		// Validate() restricts Config to the experiments whose runs it
		// actually reaches (run, timeseries).
		opt.Override = *spec.Config
	}
	switch spec.Experiment {
	case ExpRun:
		return harness.RunCell(spec.Bench, spec.Sched, opt)
	case ExpFig1b:
		return harness.RunFig1b(opt)
	case ExpFig4:
		return harness.RunFig4(opt)
	case ExpFig9:
		return runSeries(opt, []string{"ATAX", "Backprop"}, []string{"Best-SWL", "CCWS", "CIAO-T"})
	case ExpFig10:
		return runSeries(opt, []string{"SYRK", "KMN"}, []string{"CIAO-T", "CIAO-P", "CIAO-C"})
	case ExpTimeSeries:
		return harness.RunTimeSeries(spec.Bench, spec.Schedulers, opt)
	case ExpOverhead:
		return overhead.Compute(), nil
	}
	return nil, fmt.Errorf("service: unknown experiment %q", spec.Experiment)
}

// runSeries gathers the fixed figure-9/10 trace sets, one
// TimeSeriesSet per benchmark.
func runSeries(opt harness.Options, benches, scheds []string) (any, error) {
	out := make(map[string]*harness.TimeSeriesSet, len(benches))
	for _, b := range benches {
		set, err := harness.RunTimeSeries(b, scheds, opt)
		if err != nil {
			return nil, err
		}
		out[b] = set
	}
	return out, nil
}
