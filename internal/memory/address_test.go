package memory

import (
	"testing"
	"testing/quick"
)

func TestLineAddr(t *testing.T) {
	cases := []struct {
		in, want Addr
	}{
		{0, 0},
		{1, 0},
		{127, 0},
		{128, 128},
		{129, 128},
		{255, 128},
		{0xdeadbeef, 0xdeadbe80},
	}
	for _, c := range cases {
		if got := c.in.LineAddr(); got != c.want {
			t.Errorf("LineAddr(%s) = %s, want %s", c.in, got, c.want)
		}
	}
}

func TestLineIndexOffsetRoundTrip(t *testing.T) {
	f := func(a uint64) bool {
		addr := Addr(a)
		recon := Addr(addr.LineIndex()<<LineShift) + Addr(addr.Offset())
		return recon == addr && addr.Offset() < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAccessKindString(t *testing.T) {
	if Load.String() != "load" || Store.String() != "store" {
		t.Errorf("unexpected kind strings: %v %v", Load, Store)
	}
	if !Store.IsWrite() || Load.IsWrite() {
		t.Error("IsWrite misclassifies")
	}
	if !SharedLoad.IsShared() || Load.IsShared() {
		t.Error("IsShared misclassifies")
	}
}

func TestResponseLatency(t *testing.T) {
	r := Response{Req: Request{IssueCycle: 10}, DoneCycle: 110}
	if r.Latency() != 100 {
		t.Errorf("latency = %d, want 100", r.Latency())
	}
	r = Response{Req: Request{IssueCycle: 10}, DoneCycle: 5}
	if r.Latency() != 0 {
		t.Errorf("clamped latency = %d, want 0", r.Latency())
	}
}
