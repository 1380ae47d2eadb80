package harness

import (
	"encoding/json"
	"testing"

	"repro/internal/workload"
)

// TestSimulatedAs pins which cells SimulatedAs answers from GTO's run:
// Best-SWL and statPCAL where their clipped Nwrp covers every resident
// warp, and no other cell.
func TestSimulatedAs(t *testing.T) {
	atWarps := func(n int) Options { return Options{Override: Override{WarpsPerSM: n}} }
	full := map[string]bool{"PVC": true, "SS": true, "SM": true, "WC": true,
		"Gaussian": true, "CORR": true, "Hotspot": true, "NN": true, "NW": true}
	for _, w := range workload.Suite() {
		for _, f := range Schedulers() {
			want := f.Name
			if f.WarpLimited && full[w.Name] {
				want = "GTO"
			}
			if got := SimulatedAs(w.Name, f.Name, Options{InstrPerWarp: 300, Seed: 7}); got != want {
				t.Errorf("%s/%s at 48 warps simulates as %s, want %s", w.Name, f.Name, got, want)
			}
		}
	}
	cases := []struct {
		bench, sched string
		opt          Options
		want         string
	}{
		// Nwrp 36 and 38 cover 32 resident warps, not 48.
		{"Backprop", "Best-SWL", atWarps(32), "GTO"},
		{"Lud", "statPCAL", atWarps(32), "GTO"},
		{"2DCONV", "Best-SWL", atWarps(32), "GTO"},
		{"Backprop", "statPCAL", Options{}, "statPCAL"},
		// More resident warps than Nwrp 48.
		{"PVC", "Best-SWL", atWarps(64), "Best-SWL"},
		{"SYRK", "Best-SWL", Options{}, "Best-SWL"},
		{"SYRK", "statPCAL", atWarps(8), "statPCAL"},
		// A CIAO field does not change a Best-SWL machine.
		{"NN", "Best-SWL", Options{Override: Override{CIAOHighEpoch: 1000}}, "GTO"},
		// Synthetic kernels read their own nwrp and warps.
		{"synthetic:class=CI,warps=16,nwrp=16", "statPCAL", Options{}, "GTO"},
		{"synthetic:class=CI,warps=16,nwrp=8", "statPCAL", Options{}, "statPCAL"},
		{"synthetic:class=CI,warps=16,nwrp=8", "Best-SWL", atWarps(8), "GTO"},
		// Unknown names are their own simulation.
		{"NOPE", "Best-SWL", Options{}, "Best-SWL"},
		{"PVC", "NOPE", Options{}, "NOPE"},
	}
	for _, c := range cases {
		if got := SimulatedAs(c.bench, c.sched, c.opt); got != c.want {
			t.Errorf("%s/%s %+v simulates as %s, want %s", c.bench, c.sched, c.opt.Override, got, c.want)
		}
	}
}

// TestRelabelCell: a relabelled payload is the encoding of the same
// result under the other name, whatever the bench name holds.
func TestRelabelCell(t *testing.T) {
	for _, bench := range []string{"PVC", `odd ,"sched":"GTO", name`, "synthetic:class=CI,warps=16"} {
		r := CellResult{Bench: bench, Sched: "GTO", IPC: 1.25, Cycles: 9, FinishedWarps: 48}
		gto, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		for _, to := range []string{"Best-SWL", "statPCAL"} {
			got := RelabelCell(gto, "GTO", to)
			r.Sched = to
			want, _ := json.Marshal(r)
			if string(got) != string(want) {
				t.Errorf("relabel to %s:\n got %s\nwant %s", to, got, want)
			}
		}
	}
	for _, other := range []string{`{"key":"x"}`, `{"bench":"NN","sched":"GTO-cap","ipc":1}`, `{"bench":"NN","sched":"GT"}`} {
		if got := RelabelCell([]byte(other), "GTO", "Best-SWL"); string(got) != other {
			t.Errorf("payload %s that names no GTO cell relabelled to %s", other, got)
		}
	}
}
