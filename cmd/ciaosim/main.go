// Command ciaosim runs one experiment of the CIAO reproduction — a
// figure or table of the paper's evaluation, the §V-F cost model, or a
// single cell — and prints it as text, or with -json as the stable
// JSON encoding cmd/ciaoserve serves. `ciaosim -h` lists the
// experiments.
//
// Usage:
//
//	ciaosim -experiment fig8                            # IPC of 7 schedulers × 21 benchmarks
//	ciaosim -experiment run -bench SYRK -sched CIAO-C   # one cell
//	ciaosim -experiment timeseries -bench ATAX -sched GTO,CCWS -json
//
// -instr scales simulation length (instructions per warp); -seed
// varies the workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], service.NewEngine(service.Config{}), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ciaosim:", err)
		os.Exit(1)
	}
}

// run parses args as ciaosim's command line, builds the experiment's
// payload through e and writes it to stdout.
func run(args []string, e *service.Engine, stdout io.Writer) error {
	fs := flag.NewFlagSet("ciaosim", flag.ExitOnError)
	var (
		experiment = fs.String("experiment", harness.ExpFig8, "experiment to run:"+experimentList())
		bench      = fs.String("bench", "SYRK", "benchmark, for "+takers(harness.FieldBench))
		sched      = fs.String("sched", "CIAO-C", "scheduler, for "+takers(harness.FieldSched)+
			"; a comma-separated list for "+takers(harness.FieldSchedulers))
		instr   = fs.Uint64("instr", 0, "instructions per warp (0 = suite default)")
		seed    = fs.Uint64("seed", 0, "workload seed override")
		jsonOut = fs.Bool("json", false, "emit machine-readable JSON instead of tables")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits with the usage

	// An unknown name leaves exp zero, and Payload reports it.
	exp, _ := harness.LookupExperiment(*experiment)
	spec := service.Spec{
		Experiment: *experiment,
		Options:    service.OptionSpec{InstrPerWarp: *instr, Seed: *seed},
	}
	if exp.Takes(harness.FieldBench) {
		spec.Bench = *bench
	}
	if exp.Takes(harness.FieldSched) {
		spec.Sched = *sched
	}
	if exp.Takes(harness.FieldSchedulers) {
		spec.Schedulers = strings.Split(*sched, ",")
	}
	payload, err := e.Payload(spec)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(stdout)
	if *jsonOut {
		b, err := json.Marshal(payload)
		if err != nil {
			return err
		}
		w.Write(append(b, '\n'))
	} else {
		exp.Text(w, payload)
	}
	return w.Flush()
}

// experimentList renders the experiment table for -h, one per line.
func experimentList() string {
	var b strings.Builder
	for _, e := range harness.Experiments() {
		fmt.Fprintf(&b, "\n  %-10s %s", e.Name, e.Doc)
	}
	return b.String() + "\n"
}

// takers lists the experiments that read field f.
func takers(f harness.Field) string {
	var names []string
	for _, e := range harness.Experiments() {
		if e.Takes(f) {
			names = append(names, e.Name)
		}
	}
	return strings.Join(names, ", ")
}
