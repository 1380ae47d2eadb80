package metrics

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestSeriesObserveAndSnapshot(t *testing.T) {
	var s Series
	for i := 0; i < 90; i++ {
		s.Observe(1*time.Millisecond, false)
	}
	for i := 0; i < 10; i++ {
		s.Observe(2*time.Second, true)
	}
	s.AddBytes(1234)
	s.CountShed()

	snap := s.Snapshot()
	if snap.Requests != 100 {
		t.Fatalf("requests = %d, want 100", snap.Requests)
	}
	if snap.Errors != 10 {
		t.Fatalf("errors = %d, want 10", snap.Errors)
	}
	if snap.Shed != 1 {
		t.Fatalf("shed = %d, want 1", snap.Shed)
	}
	if snap.Bytes != 1234 {
		t.Fatalf("bytes = %d, want 1234", snap.Bytes)
	}
	// 90% of observations are ~1ms, 10% are 2s: p50 must sit in the
	// low-millisecond buckets, p95 and p99 in the seconds range.
	if snap.P50MS <= 0 || snap.P50MS > 5 {
		t.Fatalf("p50 = %vms, want ~1ms", snap.P50MS)
	}
	if snap.P95MS < 500 {
		t.Fatalf("p95 = %vms, want in the seconds range", snap.P95MS)
	}
	if snap.P99MS < snap.P95MS {
		t.Fatalf("p99 (%v) < p95 (%v)", snap.P99MS, snap.P95MS)
	}
	if snap.MeanMS <= 0 {
		t.Fatalf("mean = %v, want > 0", snap.MeanMS)
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	empty := make([]uint64, RedBuckets)
	if q := QuantileFromBuckets(empty, 0.95); q != 0 {
		t.Fatalf("quantile of empty histogram = %v, want 0", q)
	}
	// Everything in the +Inf bucket clamps to the last finite bound.
	inf := make([]uint64, RedBuckets)
	inf[RedBuckets-1] = 10
	if q := QuantileFromBuckets(inf, 0.5); q != 10*time.Second {
		t.Fatalf("quantile of +Inf-only histogram = %v, want 10s", q)
	}
	// A single bucket interpolates within its bounds.
	one := make([]uint64, RedBuckets)
	one[3] = 100 // (500µs, 1ms]
	q := QuantileFromBuckets(one, 0.5)
	if q <= 500*time.Microsecond || q > time.Millisecond {
		t.Fatalf("interpolated quantile = %v, want in (500µs, 1ms]", q)
	}
}

// TestREDConcurrentReaders drives parallel writers against a reader
// under -race and asserts every successive snapshot is monotone and
// internally consistent.
func TestREDConcurrentReaders(t *testing.T) {
	red := NewRED()
	const writers = 8
	const perWriter = 5000
	var wg sync.WaitGroup
	stop := make(chan struct{})

	var readerErr error
	var readerWG sync.WaitGroup
	readerWG.Add(1)
	go func() {
		defer readerWG.Done()
		var lastReq, lastErrs uint64
		for {
			s := red.Series("hot")
			// Read buckets before the totals: each Observe increments
			// requests before its bucket, so any observation visible in
			// the bucket sum must be visible in a *later* requests read.
			counts := s.BucketCounts()
			var sum uint64
			for _, c := range counts {
				sum += c
			}
			req, errs, _, _, _ := s.Totals()
			if req < lastReq || errs < lastErrs {
				readerErr = fmt.Errorf("snapshot went backwards: requests %d→%d errors %d→%d", lastReq, req, lastErrs, errs)
				return
			}
			if sum > req {
				readerErr = fmt.Errorf("bucket sum %d > later requests read %d", sum, req)
				return
			}
			lastReq, lastErrs = req, errs
			_ = s.Snapshot()
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := red.Series("hot")
			for i := 0; i < perWriter; i++ {
				s.Observe(time.Duration(i%2000)*time.Microsecond, i%17 == 0)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readerWG.Wait()
	if readerErr != nil {
		t.Fatal(readerErr)
	}

	req, _, _, _, _ := red.Series("hot").Totals()
	if want := uint64(writers * perWriter); req != want {
		t.Fatalf("final requests = %d, want %d", req, want)
	}
}

func TestREDSeriesCap(t *testing.T) {
	red := NewRED()
	red.max = 4
	for i := 0; i < 10; i++ {
		red.Series(fmt.Sprintf("s%d", i)).Observe(time.Millisecond, false)
	}
	names := red.Names()
	// 4 real series plus the shared overflow bucket.
	if len(names) != 5 {
		t.Fatalf("series count = %d (%v), want 5", len(names), names)
	}
	over, _, _, _, _ := red.Series(RedOverflow).Totals()
	if over != 6 {
		t.Fatalf("overflow requests = %d, want 6", over)
	}
}

// BenchmarkREDObserve is the hot-path proof: one observation must cost
// a handful of nanoseconds and zero allocations.
func BenchmarkREDObserve(b *testing.B) {
	var s Series
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		d := 750 * time.Microsecond
		for pb.Next() {
			s.Observe(d, false)
		}
	})
}

// TestObserveDoesNotAllocate pins the 0 allocs/op claim in a plain
// test so CI fails on regression without parsing bench output.
func TestObserveDoesNotAllocate(t *testing.T) {
	var s Series
	allocs := testing.AllocsPerRun(1000, func() {
		s.Observe(3*time.Millisecond, false)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocates %v per op, want 0", allocs)
	}
	red := NewRED()
	red.Series("warm") // create outside the measured loop
	allocs = testing.AllocsPerRun(1000, func() {
		red.Series("warm").Observe(3*time.Millisecond, true)
	})
	if allocs != 0 {
		t.Fatalf("Series lookup + Observe allocates %v per op, want 0", allocs)
	}
}
