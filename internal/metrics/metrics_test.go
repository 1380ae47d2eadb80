package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestTimeSeries(t *testing.T) {
	var ts TimeSeries
	ts.Add(Sample{Cycle: 100, IPC: 1.0})
	ts.Add(Sample{Cycle: 200, IPC: 3.0})
	if ts.Len() != 2 {
		t.Fatalf("len = %d", ts.Len())
	}
	csv := ts.CSV("gto")
	if !strings.HasPrefix(csv, "gto,100,") || strings.Count(csv, "\n") != 2 {
		t.Fatalf("csv = %q", csv)
	}
}

func TestInterferenceMatrixBasics(t *testing.T) {
	m := NewInterferenceMatrix(4)
	m.Record(1, 2)
	m.Record(1, 2)
	m.Record(1, 3)
	m.Record(0, 1)

	if m.At(1, 2) != 2 || m.At(1, 3) != 1 || m.At(0, 1) != 1 {
		t.Fatal("counts wrong")
	}
	if m.Total() != 4 {
		t.Fatalf("total = %d", m.Total())
	}
}

func TestInterferenceMatrixIgnoresOutOfRange(t *testing.T) {
	m := NewInterferenceMatrix(2)
	m.Record(-1, 0)
	m.Record(0, 5)
	if m.Total() != 0 {
		t.Fatal("out-of-range records counted")
	}
}

func TestMinMaxPerWarp(t *testing.T) {
	m := NewInterferenceMatrix(3)
	m.Record(0, 1) // count 1
	m.Record(0, 2)
	m.Record(0, 2) // count 2
	min, max := m.MinMaxPerWarp()
	if min[0] != 1 || max[0] != 2 {
		t.Fatalf("warp0 min/max = %d/%d, want 1/2", min[0], max[0])
	}
	if min[1] != 0 || max[1] != 0 {
		t.Fatal("uninterfered warp should report 0/0")
	}
}

func TestNormalized(t *testing.T) {
	m := NewInterferenceMatrix(2)
	m.Record(0, 1)
	m.Record(0, 1)
	m.Record(1, 0)
	n := m.Normalized()
	if n[0][1] != 1.0 || n[1][0] != 0.5 {
		t.Fatalf("normalized = %v", n)
	}
	empty := NewInterferenceMatrix(2).Normalized()
	if empty[0][0] != 0 {
		t.Fatal("zero matrix should normalize to zeros")
	}
}

func TestTopInterferedWarps(t *testing.T) {
	m := NewInterferenceMatrix(3)
	m.Record(2, 0)
	m.Record(2, 1)
	m.Record(1, 0)
	top := m.TopInterferedWarps(2)
	if len(top) != 2 || top[0] != 2 || top[1] != 1 {
		t.Fatalf("top = %v", top)
	}
	if got := m.TopInterferedWarps(10); len(got) != 3 {
		t.Fatalf("k beyond n should clamp: %v", got)
	}
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %f, want 4", g)
	}
	if g := GeoMean([]float64{1, 0, 4}); math.Abs(g-2) > 1e-9 {
		t.Fatalf("geomean should skip zeros: %f", g)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
}

// Property: geomean of positive values lies between min and max.
func TestGeoMeanBoundsInvariant(t *testing.T) {
	f := func(raw []uint16) bool {
		vals := make([]float64, 0, len(raw))
		for _, r := range raw {
			vals = append(vals, float64(r)+1)
		}
		if len(vals) == 0 {
			return true
		}
		lo, hi := vals[0], vals[0]
		for _, v := range vals {
			lo, hi = math.Min(lo, v), math.Max(hi, v)
		}
		g := GeoMean(vals)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"bench", "ipc"}}
	tb.AddRow("atax", "1.50")
	tb.AddRow("backprop", "0.97")
	s := tb.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d, want 4:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "bench") || !strings.Contains(lines[3], "backprop") {
		t.Fatalf("table content wrong:\n%s", s)
	}
	// Columns aligned: the "ipc" header starts at the same offset as values.
	off := strings.Index(lines[0], "ipc")
	if lines[2][off:off+4] != "1.50" {
		t.Fatalf("columns misaligned:\n%s", s)
	}
}
