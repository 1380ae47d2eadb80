package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// runStability runs two sets of n untraced runs of every workload. Run
// i of both sets uses seed cfg.seed+i, and the sets alternate which
// goes first, so drift over time hits both alike. It prints a markdown
// report: each end-to-end metric's median and quartiles per set, the
// gap between the set medians, and the bound the spread supports.
func runStability(cfg config, n int) error {
	if n < 2 {
		return fmt.Errorf("bench: --stability needs at least 2 runs per set")
	}
	type run struct {
		workload string
		seed     uint64
		set      int
		metrics  map[string]float64
	}
	var runs []run
	began := time.Now()
	for i := 0; i < n; i++ {
		seed := cfg.seed + uint64(i)
		for k := 0; k < 2; k++ {
			set := (i + k) % 2
			for _, w := range workloads {
				args := []string{"--workload", w, "--seed", strconv.FormatUint(seed, 10),
					"--seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "--trace", "0",
					"--workdir", cfg.workdir, "--server", cfg.server}
				start := time.Now()
				last, err := runChild(args, nil)
				if err != nil {
					return fmt.Errorf("bench: stability %s seed %d: %w", w, seed, err)
				}
				var res struct {
					Failed  int `json:"failed"`
					Metrics map[string]struct {
						Value float64 `json:"value"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal(last, &res); err != nil {
					return fmt.Errorf("bench: stability %s seed %d: %w", w, seed, err)
				}
				if res.Failed > 0 {
					return fmt.Errorf("bench: stability %s seed %d: %d failed", w, seed, res.Failed)
				}
				rn := run{w, seed, set, map[string]float64{}}
				for name, v := range res.Metrics {
					rn.metrics[name] = v.Value
				}
				runs = append(runs, rn)
				fmt.Fprintf(os.Stderr, "stability: run %d/%d set %c %-13s seed %d  %.1fs\n",
					i+1, n, 'A'+set, w, seed, time.Since(start).Seconds())
			}
		}
	}

	fmt.Printf("# Benchmark stability\n\n")
	fmt.Printf("Generated by `bash bench/run.sh --stability %d --seconds %g`: two sets of %d untraced runs per workload, "+
		"run i of both sets with seed %d+i, the sets alternating which runs first. Took %.0f minutes.\n\n",
		n, cfg.seconds, n, cfg.seed, time.Since(began).Minutes())
	fmt.Printf("Host: %s, %d CPUs, GOMAXPROCS %d, %s.\n\n", cpuModel(), runtime.NumCPU(), maxProcs, runtime.Version())
	fmt.Printf("Quartiles follow Python's `statistics.quantiles(values, n=4)`. " +
		"Spread is (Q3-Q1)/median; gap is |median B - median A| / median A. " +
		"Suggested bound = max(10%%, 3 x the worst spread), capped at 25%%; setup_s always takes 25%%.\n\n")
	fmt.Println("| workload | metric | A median | A Q1..Q3 | A spread | B median | B Q1..Q3 | B spread | gap |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	worst := map[string]float64{}
	for _, w := range workloads {
		for _, d := range endToEnd {
			row := []string{w, d.Name + " (" + d.Unit + ")"}
			var med [2]float64
			for set := 0; set < 2; set++ {
				var v []float64
				for _, rn := range runs {
					if val, ok := rn.metrics[d.Name]; ok && rn.set == set && rn.workload == w {
						v = append(v, val)
					}
				}
				if len(v) < 2 {
					return fmt.Errorf("bench: stability: %s %s has %d values", w, d.Name, len(v))
				}
				q1, q2, q3 := quartiles(v)
				spread := ratio(q3-q1, q2)
				med[set] = q2
				worst[d.Name] = max(worst[d.Name], spread)
				row = append(row, fmtNum(q2), fmtNum(q1)+".."+fmtNum(q3), fmt.Sprintf("%.1f%%", 100*spread))
			}
			gap := ratio(math.Abs(med[1]-med[0]), med[0])
			row = append(row, fmt.Sprintf("%.1f%%", 100*gap))
			fmt.Println("| " + strings.Join(row, " | ") + " |")
		}
	}
	fmt.Println()
	fmt.Println("| metric | worst spread | suggested bound |")
	fmt.Println("|---|---|---|")
	for _, d := range endToEnd {
		bound := math.Min(0.25, math.Max(0.10, math.Ceil(300*worst[d.Name])/100))
		if d.Name == "setup_s" {
			bound = 0.25
		}
		fmt.Printf("| %s | %.1f%% | %.2f |\n", d.Name, 100*worst[d.Name], bound)
	}

	fmt.Printf("\n## Every run\n\n| workload | seed | set |")
	for _, d := range endToEnd {
		fmt.Printf(" %s |", d.Name)
	}
	fmt.Printf("\n|---|---|---|%s\n", strings.Repeat("---|", len(endToEnd)))
	sort.SliceStable(runs, func(i, j int) bool {
		a, b := runs[i], runs[j]
		if a.workload != b.workload {
			return slices.Index(workloads, a.workload) < slices.Index(workloads, b.workload)
		}
		if a.seed != b.seed {
			return a.seed < b.seed
		}
		return a.set < b.set
	})
	for _, rn := range runs {
		fmt.Printf("| %s | %d | %c |", rn.workload, rn.seed, 'A'+rn.set)
		for _, d := range endToEnd {
			fmt.Printf(" %s |", fmtNum(rn.metrics[d.Name]))
		}
		fmt.Println()
	}
	return nil
}

func fmtNum(v float64) string { return strconv.FormatFloat(v, 'g', 4, 64) }

// cpuModel reads the host CPU's model name.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown CPU"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown CPU"
}
