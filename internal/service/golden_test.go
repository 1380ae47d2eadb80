package service

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGoldenCellResults pins the exact CellResult JSON of five cells
// spanning every major simulator path (GTO baseline, CIAO shared-memory
// isolation, CCWS, statPCAL, CIAO-P) to SHA-256 hashes captured from
// the simulator before its hot-path rewrites (the response queue, the
// pooled single-probe MSHR, the packed-tag caches, batched warp
// streams, live-warp scheduling, the event-driven cycle loop).
//
// A hash mismatch means a rewrite changed simulated behaviour, not
// just its speed — every optimisation to the cycle loop must be
// bit-exact. If a deliberate model change lands, regenerate the hashes
// and say so in the commit message.
func TestGoldenCellResults(t *testing.T) {
	golden := []struct {
		bench, sched string
		sha          string
	}{
		{"SYRK", "GTO", "b09b4687b29aa9dfb417a04b54ec8238df085da2a6cc4ae3c8fd89c150c100d4"},
		{"SYRK", "CIAO-C", "76f3d09fec97a6df2decd76470ef09cafca2b93b14eed585d8d5677903691751"},
		{"ATAX", "CCWS", "e98e31d0ba84075a47eb02bc416478283f59cdba11e135c5575266b465e6e745"},
		{"Backprop", "statPCAL", "e6df73ffac843fea01156a6b62810dd57b74bc136a6b8a181f280398f38d2800"},
		{"KMN", "CIAO-P", "be0937d776f63f534fa37430702f59debe5bd1c5d198aeb5e1c0a9d7e5b794d2"},
	}
	for _, g := range golden {
		spec := Spec{Experiment: ExpRun, Bench: g.bench, Sched: g.sched,
			Options: OptionSpec{InstrPerWarp: 1500, Seed: 7}}
		payload, err := Execute(spec)
		if err != nil {
			t.Fatalf("%s/%s: %v", g.bench, g.sched, err)
		}
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != g.sha {
			t.Errorf("%s/%s: CellResult JSON diverged from pre-rewrite golden\n got %s\nwant %s",
				g.bench, g.sched, got, g.sha)
		}
	}
}

// TestGoldenFigurePayloads pins the JSON of the five matrix figures,
// whose cells run through an engine, to SHA-256 hashes captured while
// the figures still ran their cells in a goroutine pool of their own:
// moving the cells onto the engine changed no payload byte.
func TestGoldenFigurePayloads(t *testing.T) {
	golden := []struct{ experiment, sha string }{
		{ExpFig8, "7544271714d75613599e16b0722a602daf3bbefec76bdf663fabcf11c661ac52"},
		{ExpFig11a, "73bdd892d196eef969fcc6d66904a268c7fd12d8e773377d59e4ea9b05a8e452"},
		{ExpFig11b, "2d657178749bd859efd5dafe243dc43ae68aab6bc6aa5f1adc7323a3ec6eb9e8"},
		{ExpFig12a, "f396b7f9b7a76e8557e9eeb37a6bea63a8f210aaf16ed31e717a1db3f45aeb58"},
		{ExpFig12b, "47a619dc51410b01a304069513e53defd9ef07da19ef68cfe898334faad1859d"},
	}
	for _, g := range golden {
		payload, err := Execute(Spec{Experiment: g.experiment, Options: OptionSpec{InstrPerWarp: 300, Seed: 7}})
		if err != nil {
			t.Fatalf("%s: %v", g.experiment, err)
		}
		sum := sha256.Sum256(payload)
		if got := hex.EncodeToString(sum[:]); got != g.sha {
			t.Errorf("%s: payload diverged from golden\n got %s\nwant %s", g.experiment, got, g.sha)
		}
	}
}
