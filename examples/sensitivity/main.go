// Sensitivity study: reproduces Figure 11. Sweeps the CIAO high-cutoff
// epoch (1K..50K instructions) and the high-cutoff threshold
// (4%..0.5%, low-cutoff fixed at half) over the paper's sensitivity
// benchmark set, reporting IPC normalized to the published defaults
// (5000 instructions, 1%). The paper finds both knobs flat within
// ~15% / ~5%; this program lets you verify that stability claim.
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/harness"
	"repro/internal/service"
)

func main() {
	cells := service.NewEngine(service.Config{}).CellRunner(service.OptionSpec{InstrPerWarp: 3000})

	epochs := []uint64{1000, 5000, 10000, 50000}
	epochRes, err := harness.RunEpochSensitivity(epochs, cells)
	if err != nil {
		log.Fatal(err)
	}
	printSweep("high-cutoff epoch (instructions), IPC normalized to 5000", epochRes)

	cutoffs := []float64{0.04, 0.02, 0.01, 0.005}
	cutRes, err := harness.RunCutoffSensitivity(cutoffs, cells)
	if err != nil {
		log.Fatal(err)
	}
	printSweep("high-cutoff threshold, IPC normalized to 1%", cutRes)
}

func printSweep(title string, res *harness.SensitivityResult) {
	fmt.Println(title)
	var benches []string
	for _, row := range res.Normalized {
		for b := range row {
			benches = append(benches, b)
		}
		break
	}
	sort.Strings(benches)
	fmt.Printf("  %-10s", "value")
	for _, b := range benches {
		fmt.Printf(" %8s", b[:min(8, len(b))])
	}
	fmt.Println()
	for _, v := range res.Values {
		fmt.Printf("  %-10g", v)
		for _, b := range benches {
			fmt.Printf(" %8.2f", res.Normalized[v][b])
		}
		fmt.Println()
	}
	fmt.Println()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
