package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"testing"
)

func TestStackLayer(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"method", []string{"repro/internal/sm.(*GPU).Step"}, "sm"},
		{"closure", []string{"repro/internal/harness.RunMatrix.func1"}, "harness"},
		{"generic", []string{"repro/internal/harness.classKeys[go.shape.float64]"}, "harness"},
		{"runtime helper charges its caller",
			[]string{"runtime.memmove", "repro/internal/memory.(*LatencyQueue).Push", "repro/internal/sm.(*GPU).loadL1"}, "memory"},
		{"std helper charges its caller", []string{"sort.Search", "repro/internal/cache.(*Cache).Access"}, "cache"},
		{"json before its caller", []string{"encoding/json.(*encodeState).marshal", "repro/internal/service.Execute"}, "json"},
		{"background gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "runtime_gc"},
		{"mark assist inside a layer",
			[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/workload.(*WarpStream).Fill"}, "runtime_gc"},
		{"allocation charges its caller", []string{"runtime.mallocgc", "repro/internal/workload.NewKernel"}, "workload"},
		{"unlisted package", []string{"repro/internal/metrics.(*Series).Observe"}, "other"},
		{"benchmark code", []string{"net/http.(*Client).Do", "main.post"}, "other"},
		{"idle scheduler", []string{"runtime.futex", "runtime.mcall"}, "other"},
		{"empty", nil, "other"},
	} {
		if got := stackLayer(tc.stack); got != tc.want {
			t.Errorf("%s: stackLayer(%v) = %q, want %q", tc.name, tc.stack, got, tc.want)
		}
	}
}

func TestSelfTimesSubtractUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "rep", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "service.execute", Start: 1, End: 4},
		{ID: 3, Parent: 1, Name: "service.execute", Start: 3, End: 6},
		{ID: 4, Parent: 1, Name: "sweep.append", Start: 8, End: 9},
		{ID: 5, Parent: 1, Name: "sweep.append", Start: 9.5, End: 12}, // overruns the parent
	}
	got := selfTimes(spans)
	want := map[string]float64{"rep": 10 - 5 - 1 - 0.5, "service.execute": 6, "sweep.append": 3.5}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self[%s] = %v, want %v", k, got[k], v)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ bytes.Buffer }

func (p *pb) varint(num int, v uint64) {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3))
	p.Write(binary.AppendUvarint(nil, v))
}

func (p *pb) bytes(num int, b []byte) {
	p.Write(binary.AppendUvarint(nil, uint64(num)<<3|2))
	p.Write(binary.AppendUvarint(nil, uint64(len(b))))
	p.Write(b)
}

func packed(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func TestAttributeProfileDecodesPprof(t *testing.T) {
	var prof pb
	for _, s := range []string{"", "samples", "count", "repro/internal/sm.(*GPU).Step",
		"runtime.memmove", "repro/internal/l2.(*L2).Access", "runtime.gcBgMarkWorker"} {
		prof.bytes(6, []byte(s))
	}
	fn := func(id, name uint64) {
		var f pb
		f.varint(1, id)
		f.varint(2, name)
		prof.bytes(5, f.Bytes())
	}
	fn(1, 3)
	fn(2, 4)
	fn(3, 5)
	fn(4, 6)
	loc := func(id uint64, funcs ...uint64) {
		var l pb
		l.varint(1, id)
		for _, f := range funcs {
			var line pb
			line.varint(1, f)
			l.bytes(4, line.Bytes())
		}
		prof.bytes(4, l.Bytes())
	}
	loc(10, 1)
	loc(11, 2, 3) // memmove inlined into L2.Access
	loc(12, 4)
	sample := func(count uint64, packedLocs bool, locs ...uint64) {
		var s pb
		if packedLocs {
			s.bytes(1, packed(locs...))
		} else {
			for _, l := range locs {
				s.varint(1, l)
			}
		}
		s.bytes(2, packed(count, count*10_000_000))
		prof.bytes(2, s.Bytes())
	}
	sample(5, true, 10)
	sample(3, false, 11, 10)
	sample(2, true, 12)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	got, total, err := attributeProfile(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total != 10 || got["sm"] != 5 || got["l2"] != 3 || got["runtime_gc"] != 2 {
		t.Fatalf("attribution %v total %d, want sm 5, l2 3, runtime_gc 2 of 10", got, total)
	}
	if _, _, err := attributeProfile([]byte("not gzip")); err == nil {
		t.Fatal("garbage profile accepted")
	}
}
