package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"repro/internal/dram"
	"repro/internal/harness"
	"repro/internal/l2"
	"repro/internal/service"
	"repro/internal/sm"
	"repro/internal/workload"
)

// countCell is one cell's simulated statistics, read from outside the
// simulator through harness.RunOne and the GPU's public accessors.
type countCell struct {
	spec      service.Spec
	res       sm.Result
	hasShared bool
	l2        l2.Stats
	dram      dram.Stats
	payload   []byte // harness.NewCellResult JSON, as Execute encodes it
	err       error
}

// countSummary is the result of an untimed count pass: per-cell
// statistics plus the process CPU time and heap allocations it took.
type countSummary struct {
	cells   []countCell
	cpu     time.Duration
	mallocs uint64
}

// countPass re-simulates every "run" spec on workers goroutines.
func countPass(specs []service.Spec, workers int) countSummary {
	out := make([]countCell, len(specs))
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuTime()

	parallel(workers, len(specs), func(i int) { out[i] = countOne(specs[i]) })
	cpu := cpuTime() - cpu0
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	return countSummary{cells: out, cpu: cpu, mallocs: after.Mallocs - before.Mallocs}
}

// countOne runs one cell the way service.Execute runs a "run" spec.
func countOne(spec service.Spec) countCell {
	c := countCell{spec: spec}
	f, err := harness.SchedulerByName(spec.Sched)
	if err != nil {
		c.err = err
		return c
	}
	w, err := workload.ByName(spec.Bench)
	if err != nil {
		c.err = err
		return c
	}
	r, g, err := harness.RunOne(w, f, spec.Options.Options())
	if err != nil {
		c.err = fmt.Errorf("count %s/%s: %w", spec.Bench, spec.Sched, err)
		return c
	}
	c.res = r
	c.hasShared = g.SharedCache() != nil
	c.l2 = g.L2().Stats()
	c.dram = g.L2().DRAM().Stats()
	c.payload, c.err = json.Marshal(harness.NewCellResult(spec.Bench, r, g.Interference().Total()))
	return c
}

// parallel calls fn(0..n-1) from workers goroutines and returns once
// every call has.
func parallel(workers, n int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setCountMetrics publishes the simulated per-layer metrics and the
// host cost per simulated cycle from a count pass.
func setCountMetrics(r *report, cs countSummary) {
	var (
		cycles, instr, stalls, frees   uint64
		l1Acc, l1Hit, vta              uint64
		shAcc, shHit, l2Miss           uint64
		reads, writes, rowHit, rowMiss uint64
		busBusy                        uint64
		shUtil                         float64
		shCells                        int
	)
	for _, c := range cs.cells {
		if c.err != nil {
			continue
		}
		cycles += c.res.Cycles
		instr += c.res.Instructions
		stalls += c.res.StructStalls
		frees += c.res.DeadlockFrees
		l1Acc += c.res.L1.Accesses
		l1Hit += c.res.L1.Hits
		vta += c.res.VTAHits
		if c.hasShared {
			shAcc += c.res.SharedStats.Accesses
			shHit += c.res.SharedStats.Hits
			shUtil += c.res.SharedUtil
			shCells++
		}
		// l2.Stats Hits/Accesses underflow on write misses (README: blind
		// spots), so only the miss count is used.
		l2Miss += c.l2.Misses
		reads += c.dram.Reads
		writes += c.dram.Writes
		rowHit += c.dram.RowHits
		rowMiss += c.dram.RowMisses
		busBusy += c.dram.BusBusy
	}
	n := len(cs.cells)
	pki := func(v uint64) float64 { return ratio(float64(v)*1000, float64(instr)) }
	frac := func(v uint64) float64 { return ratio(float64(v), float64(cycles)) }
	r.set("sm.issue_frac", "frac", frac(instr), n)
	r.set("sm.struct_stall_frac", "frac", frac(stalls), n)
	r.set("sm.idle_frac", "frac", frac(cycles-instr-stalls), n)
	r.set("sm.deadlock_frees", "count", float64(frees), n)
	r.set("cache.l1_accesses_pki", "1/kinstr", pki(l1Acc), n)
	r.set("cache.l1_hit_rate", "frac", ratio(float64(l1Hit), float64(l1Acc)), n)
	r.set("cache.vta_hits_pki", "1/kinstr", pki(vta), n)
	r.set("sharedmem.accesses_pki", "1/kinstr", pki(shAcc), n)
	r.set("sharedmem.hit_rate", "frac", ratio(float64(shHit), float64(shAcc)), shCells)
	r.set("sharedmem.util", "frac", ratio(shUtil, float64(shCells)), shCells)
	r.set("l2.misses_pki", "1/kinstr", pki(l2Miss), n)
	r.set("dram.reads_pki", "1/kinstr", pki(reads), n)
	r.set("dram.writes_pki", "1/kinstr", pki(writes), n)
	r.set("dram.row_hit_rate", "frac", ratio(float64(rowHit), float64(rowHit+rowMiss)), n)
	r.set("dram.bus_util", "frac", frac(busBusy), n)
	gm, pairs := ciaoOverGTO(cs.cells)
	r.set("core.ciaoc_over_gto", "ratio", gm, pairs)

	r.set("sm.cpu_ns_per_cycle", "ns", ratio(float64(cs.cpu.Nanoseconds()), float64(cycles)), n)
	r.set("sm.minstr_per_cpu_s", "Minstr/s", ratio(float64(instr)/1e6, cs.cpu.Seconds()), n)
	r.set("runtime.allocs_per_cell", "count", ratio(float64(cs.mallocs), float64(n)), n)
}

// ciaoOverGTO is the geometric mean of IPC(CIAO-C)/IPC(GTO) over the
// cells that pair up: same benchmark, same options.
func ciaoOverGTO(cells []countCell) (float64, int) {
	type key struct {
		bench string
		opts  service.OptionSpec
	}
	gto := map[key]float64{}
	for _, c := range cells {
		if c.err == nil && c.spec.Sched == "GTO" {
			gto[key{c.spec.Bench, c.spec.Options}] = c.res.IPC
		}
	}
	logSum, n := 0.0, 0
	for _, c := range cells {
		if c.err != nil || c.spec.Sched != "CIAO-C" {
			continue
		}
		if base, ok := gto[key{c.spec.Bench, c.spec.Options}]; ok && base > 0 && c.res.IPC > 0 {
			logSum += math.Log(c.res.IPC / base)
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logSum / float64(n)), n
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
