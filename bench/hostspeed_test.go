package main

import (
	"math"
	"testing"
	"time"
)

func TestNormaliseSubtractsProbesAndScales(t *testing.T) {
	// Probes every 100 ms, each taking twice the reference time: the host
	// runs at half speed, so the work itself took half as long quietly.
	var probes []span
	for start := 0.0; start < 1000; start += 100 {
		probes = append(probes, span{Name: "probe", Start: start, End: start + 2*probeRefMS})
	}
	iv := span{Start: 50, End: 550} // holds the probes at 100..500
	norm, speed := normalise(iv, probes)
	if speed != 0.5 {
		t.Fatalf("speed = %v, want 0.5", speed)
	}
	want := (500 - 5*2*probeRefMS) * 0.5
	if math.Abs(norm-want) > 1e-9 {
		t.Fatalf("normalised = %v ms, want %v", norm, want)
	}

	// Only probes that start within speedSpan of the interval count.
	far := append([]span{{Name: "probe", Start: 2000, End: 2000 + 10*probeRefMS}}, probes...)
	if _, s := normalise(span{Start: 300, End: 320}, far); s != 0.5 {
		t.Fatalf("speed with a distant slow probe = %v, want 0.5", s)
	}
	if n, s := normalise(span{Start: 5000, End: 5010}, probes); s != 1 || n != 10 {
		t.Fatalf("no probe nearby: %v ms at speed %v, want 10 ms unscaled", n, s)
	}
}

func TestSamplerRecordsProbes(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sampler for half a second")
	}
	tr := newTracer()
	s := startSampler(tr)
	deadline := time.Now().Add(5 * probeEvery)
	for busy := 0; time.Now().Before(deadline) && len(named(tr.snapshot(), "probe")) < 3; busy++ {
	}
	s.halt()
	probes := named(tr.snapshot(), "probe")
	if len(probes) < 3 {
		t.Fatalf("%d probes in %v", len(probes), 5*probeEvery)
	}
	for _, p := range probes {
		if p.ms() <= 0 {
			t.Fatalf("probe span %+v has no duration", p)
		}
	}
	if s := settledSpeed(); s <= 0 {
		t.Fatalf("settledSpeed() = %v", s)
	}
}
