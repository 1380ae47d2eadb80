package harness

import (
	"io"

	"repro/internal/overhead"
)

// Names of the experiments other packages ask for by name: the single
// cell (what /run serves, and what sweeps and grid figures run per
// cell) and Figure 8.
const (
	ExpRun  = "run"
	ExpFig8 = "fig8"
)

// Field is a set of the request fields an experiment reads.
type Field uint8

// Request fields.
const (
	FieldBench      Field = 1 << iota // one benchmark
	FieldSched                        // one scheduler
	FieldSchedulers                   // a list of schedulers
	FieldConfig                       // a machine override
	FieldOptions                      // instructions per warp, seed
	FieldSamples                      // the sample interval, for payloads with time series
)

// Request is what an experiment reads: a spec's fields, with the spec's
// machine override in Options.Override.
type Request struct {
	Bench      string
	Sched      string
	Schedulers []string
	Options    Options
}

// Experiment is one entry of the experiment table: a figure or table
// of the paper's evaluation, the §V-F cost model, or a single cell.
type Experiment struct {
	// Name selects the experiment.
	Name string
	// Doc says in one line what the experiment reproduces.
	Doc string
	// Fields are the request fields the experiment reads; the others
	// are not part of its content address.
	Fields Field
	// Grid marks a figure that aggregates a grid of cells: Build runs
	// every simulation through its CellRunner. Every other experiment
	// simulates inside Build and ignores the runner.
	Grid bool
	// Build computes the payload, the typed result whose JSON encoding
	// is the experiment's wire form.
	Build func(Request, CellRunner) (any, error)
	// Text renders a payload of Build as ciaosim prints it.
	Text func(io.Writer, any)
}

// Takes reports whether the experiment reads field f.
func (e Experiment) Takes(f Field) bool { return e.Fields&f != 0 }

// direct completes e with a build function that simulates by itself.
func direct[P any](e Experiment, build func(Request) (P, error), text func(io.Writer, P)) Experiment {
	e.Build = func(r Request, _ CellRunner) (any, error) { return build(r) }
	e.Text = func(w io.Writer, p any) { text(w, p.(P)) }
	return e
}

// grid completes e as a grid figure: a build function that runs its cells
// through a CellRunner and reads only the options the runner carries.
func grid[P any](e Experiment, build func(CellRunner) (P, error), text func(io.Writer, P)) Experiment {
	e.Fields, e.Grid = FieldOptions, true
	e.Build = func(_ Request, run CellRunner) (any, error) { return build(run) }
	e.Text = func(w io.Writer, p any) { text(w, p.(P)) }
	return e
}

// experiments is the table: every experiment, its parameters and its
// text view, in display order.
var experiments = []Experiment{
	direct(Experiment{Name: ExpRun, Doc: "one -bench × -sched cell",
		Fields: FieldBench | FieldSched | FieldConfig | FieldOptions},
		func(r Request) (CellResult, error) { return RunCell(r.Bench, r.Sched, r.Options) },
		writeCell),
	direct(Experiment{Name: "timeseries", Doc: "-bench traced under each of the comma-separated -sched schedulers (CSV)",
		Fields: FieldBench | FieldSchedulers | FieldConfig | FieldOptions | FieldSamples},
		func(r Request) (*TimeSeriesSet, error) { return RunTimeSeries(r.Bench, r.Schedulers, r.Options) },
		writeTimeSeries),
	direct(Experiment{Name: "fig1a", Doc: "Backprop inter-warp interference heatmap", Fields: FieldOptions},
		func(r Request) (*Fig1aResult, error) { return RunFig1a(r.Options) },
		writeFig1a),
	direct(Experiment{Name: "fig1b", Doc: "Backprop under Best-SWL vs CCWS", Fields: FieldOptions | FieldSamples},
		func(r Request) (*Fig1bResult, error) { return RunFig1b(r.Options) },
		writeFig1b),
	direct(Experiment{Name: "fig4", Doc: "interference skew: focus warp and per-workload min/max", Fields: FieldOptions},
		func(r Request) (*Fig4Result, error) { return RunFig4(r.Options) },
		writeFig4),
	grid(Experiment{Name: ExpFig8, Doc: "IPC of 7 schedulers × 21 benchmarks, shared-cache utilisation"},
		RunFig8, writeFig8),
	direct(Experiment{Name: "fig9", Doc: "ATAX/Backprop time series under Best-SWL, CCWS, CIAO-T (CSV)", Fields: FieldOptions | FieldSamples},
		func(r Request) (*SeriesSets, error) {
			return RunSeriesSets([]string{"ATAX", "Backprop"}, []string{"Best-SWL", "CCWS", "CIAO-T"}, r.Options)
		},
		writeSeriesSets),
	direct(Experiment{Name: "fig10", Doc: "SYRK/KMN time series under CIAO-T, CIAO-P, CIAO-C (CSV)", Fields: FieldOptions | FieldSamples},
		func(r Request) (*SeriesSets, error) {
			return RunSeriesSets([]string{"SYRK", "KMN"}, []string{"CIAO-T", "CIAO-P", "CIAO-C"}, r.Options)
		},
		writeSeriesSets),
	grid(Experiment{Name: "fig11a", Doc: "CIAO-C IPC vs high-cutoff epoch"},
		func(run CellRunner) (*SensitivityResult, error) {
			return RunEpochSensitivity([]uint64{1000, 5000, 10000, 50000}, run)
		},
		func(w io.Writer, r *SensitivityResult) {
			writeSensitivity(w, "Figure 11a — IPC vs high-cutoff epoch (normalized to 5000)", r)
		}),
	grid(Experiment{Name: "fig11b", Doc: "CIAO-C IPC vs high-cutoff threshold"},
		func(run CellRunner) (*SensitivityResult, error) {
			return RunCutoffSensitivity([]float64{0.04, 0.02, 0.01, 0.005}, run)
		},
		func(w io.Writer, r *SensitivityResult) {
			writeSensitivity(w, "Figure 11b — IPC vs high-cutoff threshold (normalized to 1%)", r)
		}),
	grid(Experiment{Name: "fig12a", Doc: "L1D configuration study"},
		RunFig12a,
		func(w io.Writer, r *Fig12Result) {
			writeFig12(w, "Figure 12a — L1D configuration study (normalized to GTO)", r)
		}),
	grid(Experiment{Name: "fig12b", Doc: "2× DRAM bandwidth study"},
		RunFig12b,
		func(w io.Writer, r *Fig12Result) {
			writeFig12(w, "Figure 12b — DRAM bandwidth study (normalized to GTO)", r)
		}),
	direct(Experiment{Name: "table1", Doc: "simulated machine configuration"},
		func(Request) (Table1, error) { return NewTable1(), nil },
		writeTable1),
	direct(Experiment{Name: "table2", Doc: "benchmark characteristics"},
		func(Request) ([]Table2Row, error) { return NewTable2(), nil },
		writeTable2),
	direct(Experiment{Name: "overhead", Doc: "§V-F hardware cost model"},
		func(Request) (overhead.Report, error) { return overhead.Compute(), nil },
		writeOverhead),
	direct(Experiment{Name: "chip", Doc: "-bench on a 4-SM cluster sharing L2/DRAM, GTO vs CIAO-C",
		Fields: FieldBench | FieldOptions},
		func(r Request) (*ChipResult, error) { return RunChip(r.Bench, r.Options) },
		writeChip),
}

// Experiments returns the experiment table in display order. Callers
// must not modify it.
func Experiments() []Experiment { return experiments }

// ExperimentNames lists the table's names in display order.
func ExperimentNames() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.Name
	}
	return names
}

// LookupExperiment returns the table entry called name.
func LookupExperiment(name string) (Experiment, bool) {
	for _, e := range experiments {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}
