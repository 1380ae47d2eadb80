package main

import (
	"slices"
	"sync"
	"time"
)

// A shared host runs the same code at very different speeds from one
// second to the next: when other tenants load the memory system or the
// core, a Fig 8 repetition can take two thirds longer (STABILITY.md). The
// benchmark therefore probes the host while it times work, and scales
// each time by how fast the probe ran around it: a normalised time is
//
//	(raw time − probe time inside it) × probeRefMS ÷ the probes' median
//
// so it reads as time on the reference host at a typical speed. The
// probe shares no code with the repository, so no change to the
// simulator or the service moves it. It spends about half its time in
// an integer loop, which tracks the core's speed, and half in random
// read-modify-writes over 4 MiB, twice the per-core L2, which track
// what the memory system costs. On the reference host that mix followed
// the simulator's slowdowns more closely than either part alone, for
// Fig 8 and for compute-bound cells alike (STABILITY.md).

const (
	// probeRefMS is the probe duration normalised times are scaled to.
	// On the reference host (an Intel Xeon with 2 vCPUs, 2 MB L2 per
	// core, go1.24.0) the probe took 3.4 ms when the host was quiet and
	// 4.3 ms at the median of the runs in STABILITY.md.
	probeRefMS = 4.0
	// probeEvery is how often the sampler probes during timed work.
	probeEvery = 100 * time.Millisecond
	// speedSpan is how far from a timed interval a probe may start and
	// still count towards its speed: a sweep cell of 60 ms gets about
	// ten probes, not one or two.
	speedSpan = 500 * time.Millisecond
)

var (
	probeMu  sync.Mutex
	probeBuf = func() []uint64 { // 4 MiB, written so every page is resident
		b := make([]uint64, 1<<19)
		for i := range b {
			b[i] = uint64(i)
		}
		return b
	}()
	probeX    = uint64(88172645463325252)
	probeSink uint64
)

// probe runs the fixed workload once and returns how long it took. The
// random walk over probeBuf continues from call to call, so each call
// touches lines the caches have not seen lately.
func probe() time.Duration {
	probeMu.Lock()
	defer probeMu.Unlock()
	start := time.Now()
	x, acc := uint64(88172645463325252), uint64(0)
	for i := 0; i < 560_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += x % 1000003
	}
	x, mask := probeX, uint64(len(probeBuf)-1)
	for i := 0; i < 140_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		acc += probeBuf[x&mask]
		probeBuf[x&mask] = acc
	}
	probeX = x
	probeSink += acc
	return time.Since(start)
}

// settledSpeed probes nine times and returns the speed of the median
// probe: the factor that normalises a time measured just before.
func settledSpeed() float64 {
	p := make([]time.Duration, 9)
	for i := range p {
		p[i] = probe()
	}
	slices.Sort(p)
	return probeRefMS / ms(p[len(p)/2])
}

// sampler probes the host every probeEvery until halted, recording each
// probe as a "probe" span. Under GOMAXPROCS 1 the probes interrupt the
// timed work, which is why normalising subtracts them.
type sampler struct {
	stop, done chan struct{}
}

func startSampler(tr *tracer) *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(probeEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				id := tr.begin("probe", "", 0)
				probe()
				tr.end(id)
			}
		}
	}()
	return s
}

// halt stops the sampler and waits for its last probe to finish.
func (s *sampler) halt() {
	close(s.stop)
	<-s.done
}

// normalise turns the raw interval iv into a normalised duration in ms
// using the probe spans: it subtracts the probes' time inside iv and
// scales by the median of the probes that started within speedSpan of
// it. It also returns that speed factor. With no probe near iv it
// leaves the time unscaled.
func normalise(iv span, probes []span) (normMS, speed float64) {
	lo := ms(speedSpan)
	var near []float64
	for _, p := range probes {
		if p.Start >= iv.Start-lo && p.Start <= iv.End+lo {
			near = append(near, p.ms())
		}
	}
	speed = 1
	if len(near) > 0 {
		slices.Sort(near)
		speed = probeRefMS / near[len(near)/2]
	}
	return (iv.ms() - covered(iv, probes)) * speed, speed
}
