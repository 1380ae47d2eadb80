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
		offset := addr - addr.LineAddr()
		recon := Addr(addr.LineIndex()<<LineShift) + offset
		return recon == addr && offset < LineSize
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
