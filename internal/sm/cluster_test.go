package sm_test

import (
	"testing"

	"repro/internal/sched"
	"repro/internal/sm"
)

func TestClusterRunsAllSMs(t *testing.T) {
	spec := tinySpec()
	spec.InstrPerWarp = 600
	c, err := sm.NewCluster(4, testConfig(), spec, func() sm.Controller { return sched.NewGTO() })
	if err != nil {
		t.Fatal(err)
	}
	if c.NumSMs() != 4 {
		t.Fatalf("SMs = %d", c.NumSMs())
	}
	perSM, chipIPC := c.Run()
	if len(perSM) != 4 {
		t.Fatalf("results = %d", len(perSM))
	}
	for i, r := range perSM {
		if r.FinishedWarps != spec.NumWarps {
			t.Fatalf("SM %d finished %d warps", i, r.FinishedWarps)
		}
		if r.TimedOut {
			t.Fatalf("SM %d timed out", i)
		}
	}
	if chipIPC <= 0 {
		t.Fatalf("chip IPC = %f", chipIPC)
	}
	if !c.Done() {
		t.Fatal("cluster not done after Run")
	}
}

func TestClusterSMsSeeDistinctStreams(t *testing.T) {
	spec := tinySpec()
	spec.InstrPerWarp = 400
	c, err := sm.NewCluster(2, testConfig(), spec, func() sm.Controller { return sched.NewGTO() })
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	// Different seeds → different cache behaviour.
	if c.SM(0).L1().Stats() == c.SM(1).L1().Stats() {
		t.Fatal("SMs produced identical cache statistics; seeds not mixed")
	}
}

func TestClusterSharesL2(t *testing.T) {
	spec := tinySpec()
	spec.InstrPerWarp = 400
	c, err := sm.NewCluster(3, testConfig(), spec, func() sm.Controller { return sched.NewGTO() })
	if err != nil {
		t.Fatal(err)
	}
	c.Run()
	// All SMs' misses land in one shared L2.
	shared := c.L2().Stats().Accesses
	var sum uint64
	for i := 0; i < c.NumSMs(); i++ {
		l1 := c.SM(i).L1().Stats()
		sum += l1.Accesses - l1.Hits
	}
	if shared == 0 || sum == 0 {
		t.Fatal("no shared L2 traffic")
	}
	if c.SM(0).L2() != c.L2() || c.SM(2).L2() != c.L2() {
		t.Fatal("SMs not wired to the shared L2")
	}
}

func TestClusterDeterminism(t *testing.T) {
	spec := tinySpec()
	spec.InstrPerWarp = 400
	run := func() float64 {
		c, err := sm.NewCluster(2, testConfig(), spec, func() sm.Controller { return sched.NewGTO() })
		if err != nil {
			t.Fatal(err)
		}
		_, ipc := c.Run()
		return ipc
	}
	if run() != run() {
		t.Fatal("cluster simulation not deterministic")
	}
}

func TestClusterRejectsZeroSMs(t *testing.T) {
	if _, err := sm.NewCluster(0, testConfig(), tinySpec(), func() sm.Controller { return sched.NewGTO() }); err == nil {
		t.Fatal("zero-SM cluster accepted")
	}
}

func TestClusterBandwidthScalesWithSMs(t *testing.T) {
	// The shared DRAM must be provisioned at n× the per-SM share:
	// a 4-SM cluster should finish the same total work in fewer cycles
	// than 4× a single SM's cycles would suggest under a fixed bus.
	spec := tinySpec()
	spec.InstrPerWarp = 500
	single, err := sm.NewCluster(1, testConfig(), spec, func() sm.Controller { return sched.NewGTO() })
	if err != nil {
		t.Fatal(err)
	}
	_, ipc1 := single.Run()

	quad, err := sm.NewCluster(4, testConfig(), spec, func() sm.Controller { return sched.NewGTO() })
	if err != nil {
		t.Fatal(err)
	}
	_, ipc4 := quad.Run()
	// Aggregate chip IPC should scale well beyond a single SM's.
	if ipc4 < 2*ipc1 {
		t.Fatalf("4-SM chip IPC %f not scaling over single-SM %f", ipc4, ipc1)
	}
}
