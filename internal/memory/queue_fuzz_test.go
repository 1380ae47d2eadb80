package memory

import (
	"math/rand"
	"testing"
)

// refQueue is the response queue as it was before the sorted-key
// rewrite, kept as the reference model FuzzLatencyQueue checks
// LatencyQueue against: a ring buffer in insertion order with a lazily
// repaired lower bound on the minimum ReadyCycle. PopReady scans from
// the oldest event and serves the first ready one.
type refQueue struct {
	capacity int
	buf      []Event // ring storage
	head     int     // index of the oldest event
	n        int     // live event count
	minReady uint64  // lower bound on min ReadyCycle; valid when n > 0
}

func newRefQueue(capacity int) *refQueue {
	q := &refQueue{capacity: capacity}
	if capacity > 0 {
		q.buf = make([]Event, capacity)
	}
	return q
}

func (q *refQueue) Full() bool { return q.capacity > 0 && q.n >= q.capacity }

func (q *refQueue) idx(pos int) int {
	i := q.head + pos
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

func (q *refQueue) grow() {
	size := len(q.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]Event, size)
	for pos := 0; pos < q.n; pos++ {
		buf[pos] = q.buf[q.idx(pos)]
	}
	q.buf, q.head = buf, 0
}

func (q *refQueue) Push(ev Event) bool {
	if q.Full() {
		return false
	}
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[q.idx(q.n)] = ev
	if q.n == 0 || ev.ReadyCycle < q.minReady {
		q.minReady = ev.ReadyCycle
	}
	q.n++
	return true
}

func (q *refQueue) removeAt(pos int) Event {
	i := q.idx(pos)
	ev := q.buf[i]
	for p := pos; p > 0; p-- {
		q.buf[q.idx(p)] = q.buf[q.idx(p-1)]
	}
	q.buf[q.head] = Event{}
	q.head = q.idx(1)
	q.n--
	return ev
}

func (q *refQueue) PopReady(now uint64) (Event, bool) {
	if q.n == 0 || q.minReady > now {
		return Event{}, false
	}
	min := ^uint64(0)
	for pos := 0; pos < q.n; pos++ {
		rc := q.buf[q.idx(pos)].ReadyCycle
		if rc <= now {
			return q.removeAt(pos), true
		}
		if rc < min {
			min = rc
		}
	}
	q.minReady = min
	return Event{}, false
}

// trueMin is the exact minimum ReadyCycle of the queued events.
func (q *refQueue) trueMin() (uint64, bool) {
	lo := ^uint64(0)
	for pos := 0; pos < q.n; pos++ {
		lo = min(lo, q.buf[q.idx(pos)].ReadyCycle)
	}
	return lo, q.n > 0
}

// FuzzLatencyQueue drives LatencyQueue and the reference ring queue
// with the same push/pop/NextReady sequence and requires the same
// events in the same order, the same push verdicts, and NextReady
// equal to the reference's true minimum. capacity 0 is unbounded. Each
// op byte's low three bits pick the op and its high five bits
// parameterise it: pushes due soon (ties are common) or far in the
// future (unready events at the head), single pops, drains and clock
// skips. Pushes go through Add, whose zeroed slot is filled in place,
// and pops through Ready and the in-place Pop, as the SM's fill path
// does.
func FuzzLatencyQueue(f *testing.F) {
	f.Add(uint8(0), []byte{0, 0, 8, 3, 3, 3, 3})
	f.Add(uint8(2), []byte{2 | 31<<3, 0, 0, 5, 6 | 31<<3, 3, 3})
	f.Add(uint8(4), []byte{1 | 4<<3, 0, 1 | 4<<3, 0, 6 | 2<<3, 5, 7, 0, 3})
	for i, c := range []uint8{0, 1, 3, 16, 64} {
		r := rand.New(rand.NewSource(int64(i)))
		ops := make([]byte, 400)
		r.Read(ops)
		f.Add(c, ops)
	}
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		capN := int(capacity % 65)
		q, ref := NewLatencyQueue(capN), newRefQueue(capN)
		now, line := uint64(0), Addr(0)
		pop := func(i int) bool {
			var got Event
			gotOK := q.Ready(now)
			if gotOK {
				got = *q.Pop(now)
			}
			want, wantOK := ref.PopReady(now)
			if got != want || gotOK != wantOK {
				t.Fatalf("op %d: PopReady(%d) = %+v,%v, reference %+v,%v", i, now, got, gotOK, want, wantOK)
			}
			return gotOK
		}
		for i, op := range ops {
			arg := uint64(op >> 3)
			switch op & 7 {
			case 0, 1, 2:
				if op&7 == 2 {
					arg *= 97
				}
				ev := Event{Line: line, ReadyCycle: now + arg, WarpID: int32(i % 48), Payload: uint8(i)}
				line += LineSize
				var got bool
				if slot := q.Add(ev.ReadyCycle); slot != nil {
					if *slot != (Event{ReadyCycle: ev.ReadyCycle}) {
						t.Fatalf("op %d: Add(%d) slot = %+v, want zeroed but for ReadyCycle", i, ev.ReadyCycle, *slot)
					}
					slot.Line, slot.WarpID, slot.Payload = ev.Line, ev.WarpID, ev.Payload
					got = true
				}
				if want := ref.Push(ev); got != want {
					t.Fatalf("op %d: push = %v, reference %v", i, got, want)
				}
			case 3, 4:
				pop(i)
			case 5:
				for pop(i) {
				}
			case 6:
				now += arg * arg
			case 7:
				now++
			}
			if q.Len() != ref.n || q.Full() != ref.Full() {
				t.Fatalf("op %d: Len/Full = %d/%v, reference %d/%v", i, q.Len(), q.Full(), ref.n, ref.Full())
			}
			rc, ok := q.NextReady()
			want, wantOK := ref.trueMin()
			if ok != wantOK || (ok && rc != want) {
				t.Fatalf("op %d: NextReady = %d,%v, true minimum %d,%v", i, rc, ok, want, wantOK)
			}
			if got := q.Ready(now); got != (wantOK && want <= now) {
				t.Fatalf("op %d: Ready(%d) = %v, true minimum %d,%v", i, now, got, want, wantOK)
			}
		}
		now = ^uint64(0)
		for pop(len(ops)) {
		}
	})
}
