package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a call boundary the benchmark owns.
// Spans of one cell share its Cell id; Parent is 0 for a root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Cell   string  `json:"cell,omitempty"`
	Start  float64 `json:"start_ms"` // since the tracer's epoch
	End    float64 `json:"end_ms"`
}

func (s span) ms() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Spans are always
// recorded (they are what the op latencies are computed from); only the
// CPU profile distinguishes a traced run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span now and returns its id for end.
func (t *tracer) begin(name, cell string, parent int) int {
	now := ms(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Cell: cell, Start: now, End: now})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) {
	now := ms(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// named returns the spans called name, in the order given.
func named(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover. Children may overlap (cells run
// in parallel), so covered time is the union of their intervals.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += s.ms() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids spans.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]float64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]float64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// layerPkgs maps this repository's packages to the layer names used in
// the CPU attribution. Packages not listed (metrics, httpx, coord,
// overhead) fall into "other".
var layerPkgs = map[string]string{
	"workload":  "workload",
	"sm":        "sm",
	"sched":     "sched",
	"core":      "core",
	"cache":     "cache",
	"sharedmem": "sharedmem",
	"memory":    "memory",
	"l2":        "l2",
	"dram":      "dram",
	"harness":   "harness",
	"service":   "service",
	"sweep":     "sweep",
}

// gcFrame reports whether fn belongs to the garbage collector's own
// work: background marking and sweeping, and mark assists charged to
// allocating goroutines.
func gcFrame(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.scanobject", "runtime.greyobject", "runtime.scanblock":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.(*gc") ||
		strings.HasPrefix(fn, "runtime.markroot")
}

// frameLayer names the layer a single function belongs to; ok is false
// for frames that charge their time to their caller (the runtime and
// the standard library other than encoding/json).
func frameLayer(fn string) (layer string, ok bool) {
	if strings.HasPrefix(fn, "encoding/json.") {
		return "json", true
	}
	if strings.HasPrefix(fn, "main.") {
		return "other", true // the benchmark's own code
	}
	rest, found := strings.CutPrefix(fn, "repro/internal/")
	if !found {
		return "", false
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	if l, ok := layerPkgs[pkg]; ok {
		return l, true
	}
	return "other", true
}

// stackLayer attributes one CPU sample, given its stack leaf first. Any
// garbage-collector frame makes it runtime_gc; otherwise the innermost
// frame of a known layer takes it, so runtime helpers (memmove, map
// access, allocation) count towards the layer that called them.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "runtime_gc"
		}
	}
	for _, fn := range stack {
		if l, ok := frameLayer(fn); ok {
			return l
		}
	}
	return "other"
}

// attributeProfile reads a gzipped pprof CPU profile, as written by
// runtime/pprof, and returns the sample count per layer.
func attributeProfile(gz []byte) (map[string]int64, int64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, 0, fmt.Errorf("bench: cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, 0, fmt.Errorf("bench: cpu profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, 0, err
	}
	out := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fid := range p.locFuncs[loc] {
				stack = append(stack, p.funcNames[fid])
			}
		}
		out[stackLayer(stack)] += s.count
		total += s.count
	}
	return out, total, nil
}

// profile is the part of the pprof protobuf the attribution needs.
type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id → function ids, innermost first
	funcNames map[uint64]string
}

type profSample struct {
	locs  []uint64 // leaf first
	count int64
}

// decodeProfile parses the uncompressed perftools.profiles.Profile
// message: samples (field 2), locations (4), functions (5) and the
// string table (6). Other fields are skipped.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	err := eachField(b, func(num int, v uint64, data []byte) error {
		switch num {
		case 2:
			var s profSample
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, d)
				case 2:
					if vals := appendVarints(nil, v, d); len(vals) > 0 && s.count == 0 {
						s.count = int64(vals[0])
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var funcs []uint64
			err := eachField(data, func(n int, v uint64, d []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(d, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							funcs = append(funcs, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = funcs
			return err
		case 5:
			var id, name uint64
			err := eachField(data, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNameIdx[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench: cpu profile: %w", err)
	}
	for id, si := range funcNameIdx {
		if si < uint64(len(strs)) {
			p.funcNames[id] = strs[si]
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field that arrived either
// unpacked (one varint v, data nil) or packed (data holds varints).
func appendVarints(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := varint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

var errProto = errors.New("malformed protobuf")

// eachField walks a protobuf message, calling fn with each field's
// number and either its varint value (data nil) or its length-delimited
// payload. Fixed-width fields are skipped.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data := b[n : n+int(l)] // non-nil even when empty
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}

// varint decodes a base-128 varint, returning its length (0 when
// truncated).
func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
