package metrics

import (
	"strings"
	"testing"
	"time"
)

// TestPromGolden pins the exposition output of a small, fully
// deterministic registry: header dedup, label rendering, cumulative
// histogram buckets, sum and count.
func TestPromGolden(t *testing.T) {
	red := NewRED()
	a := red.Series("/run")
	// Bucket bounds are inclusive: 1ms lands in the (500µs, 1ms]
	// bucket, 2s in (1s, 2.5s].
	a.Observe(1*time.Millisecond, false)
	a.Observe(1*time.Millisecond, false)
	a.Observe(2*time.Second, true)
	a.AddBytes(64)
	a.CountShed()
	b := red.Series("admin")
	b.Observe(100*time.Microsecond, false)

	var sb strings.Builder
	pw := NewPromWriter(&sb)
	red.WriteProm(pw, "ciao_http", "route")
	got := sb.String()

	for _, want := range []string{
		"# TYPE ciao_http_requests_total counter\n",
		`ciao_http_requests_total{route="/run"} 3` + "\n",
		`ciao_http_requests_total{route="admin"} 1` + "\n",
		`ciao_http_request_errors_total{route="/run"} 1` + "\n",
		`ciao_http_requests_shed_total{route="/run"} 1` + "\n",
		`ciao_http_response_bytes_total{route="/run"} 64` + "\n",
		"# TYPE ciao_http_request_seconds histogram\n",
		`ciao_http_request_seconds_bucket{route="/run",le="0.001"} 2` + "\n",
		`ciao_http_request_seconds_bucket{route="/run",le="2.5"} 3` + "\n",
		`ciao_http_request_seconds_bucket{route="/run",le="+Inf"} 3` + "\n",
		`ciao_http_request_seconds_sum{route="/run"} 2.002` + "\n",
		`ciao_http_request_seconds_count{route="/run"} 3` + "\n",
		`ciao_http_request_seconds_bucket{route="admin",le="0.0001"} 1` + "\n",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("exposition missing %q\n--- got ---\n%s", want, got)
		}
	}
	// One HELP/TYPE block per metric family, not per label set.
	if n := strings.Count(got, "# TYPE ciao_http_requests_total"); n != 1 {
		t.Fatalf("requests_total TYPE header appears %d times, want 1", n)
	}
	if n := strings.Count(got, "# TYPE ciao_http_request_seconds"); n != 1 {
		t.Fatalf("request_seconds TYPE header appears %d times, want 1", n)
	}
	// Cumulative buckets never decrease: spot-check ordering of the
	// /run histogram lines as they appear.
	runLines := []string{}
	for _, line := range strings.Split(got, "\n") {
		if strings.HasPrefix(line, `ciao_http_request_seconds_bucket{route="/run"`) {
			runLines = append(runLines, line)
		}
	}
	if len(runLines) != RedBuckets {
		t.Fatalf("bucket lines = %d, want %d", len(runLines), RedBuckets)
	}
}

func TestPromCounterAndGauge(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Counter("coord_leases_granted", "Leases granted.", 7)
	pw.Gauge("coord_active", "Live distributed sweeps.", 2)
	got := sb.String()
	want := "# HELP coord_leases_granted Leases granted.\n" +
		"# TYPE coord_leases_granted counter\n" +
		"coord_leases_granted 7\n" +
		"# HELP coord_active Live distributed sweeps.\n" +
		"# TYPE coord_active gauge\n" +
		"coord_active 2\n"
	if got != want {
		t.Fatalf("exposition:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPromLabelEscaping covers sweep ids (or other label values) with
// characters the text format must escape.
func TestPromLabelEscaping(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Counter("x_total", "h", 1, "sweep", "a\"b\\c\nd")
	got := sb.String()
	if !strings.Contains(got, `x_total{sweep="a\"b\\c\nd"} 1`+"\n") {
		t.Fatalf("escaped label wrong:\n%s", got)
	}

	if e := EscapeLabel(`plain-id-123`); e != "plain-id-123" {
		t.Fatalf("plain value changed: %q", e)
	}
	if e := EscapeLabel("q\"\\\n"); e != `q\"\\\n` {
		t.Fatalf("escape = %q", e)
	}
}

func TestPromHelpEscaping(t *testing.T) {
	var sb strings.Builder
	pw := NewPromWriter(&sb)
	pw.Counter("y_total", "line1\nline2 \\ done", 0)
	got := sb.String()
	if !strings.Contains(got, `# HELP y_total line1\nline2 \\ done`+"\n") {
		t.Fatalf("help escaping wrong:\n%s", got)
	}
}
