package sweep

import (
	"encoding/json"
	"os"
	"testing"
)

func TestExampleSyntheticHalvingSpecExpands(t *testing.T) {
	b, err := os.ReadFile("../../examples/sweep-synthetic-halving.json")
	if err != nil {
		t.Fatal(err)
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	// Expand on a search spec yields its round-0 grid: 3 pow2 MSHR
	// sizes × 3 log-spaced cutoffs × 2 synthetic benches × 1 scheduler.
	cells, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 18 {
		t.Fatalf("round-0 cells = %d, want 18", len(cells))
	}
	for _, c := range cells {
		if c.Spec.Config == nil {
			t.Fatalf("cell %s/%s has no config override", c.Bench, c.Config)
		}
	}
}
