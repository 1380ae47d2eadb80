package main

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"repro/internal/harness"
	"repro/internal/service"
	"repro/internal/workload"
)

func TestScheduleIsSeeded(t *testing.T) {
	a := schedule(7, 100, 4, serveInstr)
	b := schedule(7, 100, 4, serveInstr)
	c := schedule(8, 100, 4, serveInstr)
	if len(a) != 400 || len(b) != 400 {
		t.Fatalf("schedule lengths %d, %d; want 400", len(a), len(b))
	}
	hot, differ := 0, 0
	seeds := map[uint64]bool{}
	for i := range a {
		if a[i].Due != b[i].Due || !bytes.Equal(a[i].Body, b[i].Body) || a[i].Hot != b[i].Hot {
			t.Fatalf("request %d differs between two schedules of seed 7", i)
		}
		if !bytes.Equal(a[i].Body, c[i].Body) {
			differ++
		}
		if a[i].Hot {
			hot++
			continue
		}
		if seeds[a[i].Spec.Options.Seed] {
			t.Fatalf("request %d reuses distinct seed %d", i, a[i].Spec.Options.Seed)
		}
		seeds[a[i].Spec.Options.Seed] = true
	}
	if a[399].Due != 3990*1e6 {
		t.Fatalf("last due time %v, want 3.99s", a[399].Due)
	}
	if differ < 300 {
		t.Fatalf("seeds 7 and 8 share %d of 400 request bodies", 400-differ)
	}
	if hot != 300 {
		t.Fatalf("%d of 400 requests hot, want 300", hot)
	}
	for lo := 0; lo < len(a); lo += mixBlock {
		n := 0
		for _, rq := range a[lo : lo+mixBlock] {
			if !rq.Hot {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("requests %d..%d hold %d distinct cells, want 1", lo, lo+mixBlock, n)
		}
	}
	if len(hotSet(7, serveInstr)) != 2*hotBenches {
		t.Fatalf("hot set has %d cells, want %d", len(hotSet(7, serveInstr)), 2*hotBenches)
	}

	// Every pass of distinct requests covers each benchmark, and each
	// scheduler, once.
	var benches, scheds []string
	for _, rq := range a {
		if !rq.Hot {
			benches = append(benches, rq.Spec.Bench)
			scheds = append(scheds, rq.Spec.Sched)
		}
	}
	for _, axis := range []struct {
		vals []string
		n    int
	}{{benches, len(workload.Suite())}, {scheds, len(harness.Schedulers())}} {
		for lo := 0; lo+axis.n <= len(axis.vals); lo += axis.n {
			seen := map[string]bool{}
			for _, v := range axis.vals[lo : lo+axis.n] {
				seen[v] = true
			}
			if len(seen) != axis.n {
				t.Fatalf("distinct requests %d..%d cover %d of %d values: %v", lo, lo+axis.n, len(seen), axis.n, axis.vals[lo:lo+axis.n])
			}
		}
	}
}

// TestOpenLoopAgainstHandler drives the generator and its checks
// against the in-process /run handler at a tiny simulation scale.
func TestOpenLoopAgainstHandler(t *testing.T) {
	const instr = 50
	eng := service.NewEngine(service.Config{Workers: engineWorkers})
	ts := httptest.NewServer(service.NewHandler(eng))
	defer ts.Close()
	client := newClient()
	defer client.CloseIdleConnections()

	if err := warmHot(client, ts.URL, hotSet(3, instr)); err != nil {
		t.Fatal(err)
	}
	reqs := schedule(3, 400, 0.25, instr)
	keep := sampledResponses(reqs)
	outs := windowedLoop(client, ts.URL, reqs, func(i int) bool { return keep[i] })
	r := newReport("serve")
	checkServe(r, reqs, outs, keep)
	if r.Failed != 0 {
		t.Fatalf("%d of %d checks failed: %v", r.Failed, r.Attempted, r.Problems)
	}
	if r.Attempted < len(reqs)+len(keep) {
		t.Fatalf("attempted %d, want at least %d requests + %d sampled responses", r.Attempted, len(reqs), len(keep))
	}
	for i, o := range outs {
		if o.Late < 0 || o.Latency < o.Late {
			t.Fatalf("request %d: late %v, latency %v", i, o.Late, o.Latency)
		}
	}
	serveMetrics(r, reqs, outs)
	for _, name := range []string{"wall_s", "op_p50_ms", "miss_p50_ms", "hit_p50_ms", "gen.late_p50_ms"} {
		if s, ok := r.Metrics[name]; !ok || s.Value <= 0 {
			t.Errorf("%s = %+v, want a positive measurement", name, s)
		}
	}

	// A response that disagrees with Execute must fail a check.
	for i := range outs {
		if keep[i] {
			outs[i].Body = append([]byte(nil), outs[i].Body...)
			outs[i].Body[0] ^= 1
			break
		}
	}
	bad := newReport("serve")
	checkServe(bad, reqs, outs, keep)
	if bad.Failed != 1 {
		t.Fatalf("corrupted response: %d failed checks, want 1", bad.Failed)
	}
}
