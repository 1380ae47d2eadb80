// Command benchgate compares the cells/sec throughput metrics of two
// `go test -json -bench` snapshots and fails when the current run has
// regressed beyond a threshold against the committed baseline. It is
// the CI tripwire that keeps the perf trajectory (BENCH_PR*.json)
// honest: a PR that silently slows the cycle loop turns the bench job
// red instead of shipping.
//
// Usage:
//
//	benchgate -baseline BENCH_PR12.json -current fresh.json -max-regress 15
//
// Only benchmarks reporting a cells/sec metric participate; CI runners
// are noisy, so the default threshold is deliberately loose — it
// catches algorithmic regressions, not scheduler jitter.
package main

import (
	"flag"
	"fmt"
	"os"
)

func main() {
	baseline := flag.String("baseline", "", "committed go test -json snapshot (required)")
	current := flag.String("current", "", "freshly produced go test -json snapshot (required)")
	maxRegress := flag.Float64("max-regress", 15, "maximum allowed cells/sec regression, percent")
	flag.Parse()
	if *baseline == "" || *current == "" {
		flag.Usage()
		os.Exit(2)
	}

	base, err := parseFile(*baseline)
	if err != nil {
		fatal("baseline: %v", err)
	}
	cur, err := parseFile(*current)
	if err != nil {
		fatal("current: %v", err)
	}
	if len(base) == 0 {
		// A baseline predating the cells/sec metric gates nothing; the
		// next committed snapshot arms the gate.
		fmt.Println("benchgate: baseline has no cells/sec benchmarks; nothing to gate")
		return
	}

	failed := false
	for _, name := range sortedKeys(base) {
		b := base[name]
		c, ok := cur[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "benchgate: FAIL %s: present in baseline, missing from current run\n", name)
			failed = true
			continue
		}
		change := (c - b) / b * 100
		status := "ok"
		if change < -*maxRegress {
			status = "FAIL"
			failed = true
		}
		fmt.Printf("benchgate: %-4s %-30s %10.2f -> %10.2f cells/sec (%+.1f%%)\n",
			status, name, b, c, change)
	}
	if failed {
		fatal("cells/sec regressed more than %.0f%% against the baseline", *maxRegress)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchgate: "+format+"\n", args...)
	os.Exit(1)
}
