package metrics

import (
	"io"
	"strconv"
	"strings"
	"time"
)

// PromWriter emits Prometheus text exposition format (version 0.0.4)
// without any dependency: counters, gauges and histograms, with HELP
// and TYPE headers deduplicated per metric name so several label sets
// of one metric share a single header block.
type PromWriter struct {
	w     io.Writer
	err   error
	typed map[string]bool
}

// PromContentType is the Content-Type of the text exposition format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// NewPromWriter wraps w. After a write fails, later writes are
// skipped: the reader of a /metrics response that broke off gets
// nothing more.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, typed: map[string]bool{}}
}

func (p *PromWriter) print(s string) {
	if p.err != nil {
		return
	}
	_, p.err = io.WriteString(p.w, s)
}

// head emits the HELP/TYPE block for a metric name once.
func (p *PromWriter) head(name, help, typ string) {
	if p.typed[name] {
		return
	}
	p.typed[name] = true
	p.print("# HELP " + name + " " + escapeHelp(help) + "\n")
	p.print("# TYPE " + name + " " + typ + "\n")
}

// sample emits one sample line: name{labels} value.
func (p *PromWriter) sample(name string, labels []string, value string) {
	p.print(name + formatLabels(labels) + " " + value + "\n")
}

// Counter emits a monotonic counter sample. labels are alternating
// key/value pairs.
func (p *PromWriter) Counter(name, help string, value uint64, labels ...string) {
	p.head(name, help, "counter")
	p.sample(name, labels, strconv.FormatUint(value, 10))
}

// Gauge emits a gauge sample.
func (p *PromWriter) Gauge(name, help string, value float64, labels ...string) {
	p.head(name, help, "gauge")
	p.sample(name, labels, formatFloat(value))
}

// Histogram emits a full histogram: one _bucket line per bound (in
// ascending order, cumulative counts) plus the implicit +Inf bucket,
// then _sum (seconds) and _count. counts holds per-bucket (not
// cumulative) observation counts, one per bound plus the overflow.
func (p *PromWriter) Histogram(name, help string, boundsSeconds []float64, counts []uint64, sumSeconds float64, labels ...string) {
	p.head(name, help, "histogram")
	var cum uint64
	for i, b := range boundsSeconds {
		if i < len(counts) {
			cum += counts[i]
		}
		p.sample(name+"_bucket", append(labels, "le", formatFloat(b)), strconv.FormatUint(cum, 10))
	}
	for i := len(boundsSeconds); i < len(counts); i++ {
		cum += counts[i]
	}
	p.sample(name+"_bucket", append(labels, "le", "+Inf"), strconv.FormatUint(cum, 10))
	p.sample(name+"_sum", labels, formatFloat(sumSeconds))
	p.sample(name+"_count", labels, strconv.FormatUint(cum, 10))
}

// formatLabels renders {k="v",...} from alternating pairs ("" for none).
func formatLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// EscapeLabel escapes a label value per the exposition format:
// backslash, double-quote and newline.
func EscapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string (backslash and newline only).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteProm exports every series of the registry, metric-major (every
// route's request counter, then every route's error counter, …) so
// each metric family appears exactly once. prefix is the metric
// namespace ("ciao_http" → ciao_http_requests_total, …) and label the
// series label name ("route"). Names are sorted for stable output.
func (r *RED) WriteProm(p *PromWriter, prefix, label string) {
	rows := r.rows()
	writeRequests(p, prefix, label, rows)
	for _, rw := range rows {
		p.Counter(prefix+"_requests_shed_total", "Requests rejected by overload admission control (429), by "+label+".", rw.shed, label, rw.name)
	}
	for _, rw := range rows {
		p.Counter(prefix+"_response_bytes_total", "Response payload bytes written, by "+label+".", rw.bytes, label, rw.name)
	}
	writeSeconds(p, prefix, label, rows)
}

// WriteCellProm exports the families a series that only ever Observes
// fills: requests, errors and the duration histogram. Sweep cells are
// such series; nothing sheds a cell or counts its bytes, so the other
// two families would always read zero.
func (r *RED) WriteCellProm(p *PromWriter, prefix, label string) {
	rows := r.rows()
	writeRequests(p, prefix, label, rows)
	writeSeconds(p, prefix, label, rows)
}

// redRow is one series read once for exposition.
type redRow struct {
	name                        string
	req, errs, shed, bytes, dur uint64
	counts                      [RedBuckets]uint64
}

// rows reads every series once, in name order.
func (r *RED) rows() []redRow {
	names := r.Names()
	rows := make([]redRow, 0, len(names))
	for _, n := range names {
		if v, ok := r.series.Load(n); ok {
			s := v.(*Series)
			rw := redRow{name: n, counts: s.BucketCounts()}
			rw.req, rw.errs, rw.shed, rw.bytes, rw.dur = s.Totals()
			rows = append(rows, rw)
		}
	}
	return rows
}

// writeRequests emits the request and error counter families.
func writeRequests(p *PromWriter, prefix, label string, rows []redRow) {
	for _, rw := range rows {
		p.Counter(prefix+"_requests_total", "Requests handled, by "+label+".", rw.req, label, rw.name)
	}
	for _, rw := range rows {
		p.Counter(prefix+"_request_errors_total", "Requests that failed (5xx / failed cells), by "+label+".", rw.errs, label, rw.name)
	}
}

// writeSeconds emits the duration histogram family.
func writeSeconds(p *PromWriter, prefix, label string, rows []redRow) {
	bounds := RedBoundsSeconds()
	for _, rw := range rows {
		p.Histogram(prefix+"_request_seconds", "Request duration, by "+label+".",
			bounds, rw.counts[:], float64(rw.dur)/float64(time.Second), label, rw.name)
	}
}
