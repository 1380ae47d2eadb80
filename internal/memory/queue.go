package memory

// Event is a timestamped item flowing through a latency queue: a
// request or fill that becomes visible at ReadyCycle.
type Event struct {
	Req Request
	// Line is the affected line address (fills are line-granular).
	Line Addr
	// ReadyCycle is the first cycle at which the event may be consumed.
	ReadyCycle uint64
	// HitLevel records where the data was found, for fills.
	HitLevel HitLevel
	// Payload carries model-specific data (e.g. an MSHR pointer).
	Payload int
}

// LatencyQueue is a bounded FIFO whose entries become visible only
// after their ReadyCycle, modelling a fixed-latency pipe such as the
// L1↔L2 interconnect or the response queue in Figure 7a.
//
// Ordering guarantee: among events that are ready at a given cycle,
// PopReady serves them strictly in insertion (FIFO) order; an unready
// event never blocks a ready one behind it. This is the property the
// SM fill path relies on for deterministic replay — two fills ready on
// the same cycle always retire in issue order.
//
// The queue is a ring buffer with a cached ReadyCycle lower bound, so
// the common quiescent case ("is anything ready yet?") is answered in
// O(1) via NextReady without scanning: an idle queue costs the cycle
// loop one comparison per cycle. The bound is maintained lazily:
// removals never rescan (a removal cannot lower the true minimum, so
// the bound stays valid, merely stale-low), and the first unsuccessful
// ready-scan repairs it exactly for free.
type LatencyQueue struct {
	name     string
	capacity int
	buf      []Event // ring storage
	head     int     // index of the oldest event
	n        int     // live event count
	minReady uint64  // lower bound on min ReadyCycle; valid when n > 0
	pushes   uint64
	fullHits uint64
}

// NewLatencyQueue returns a queue with the given capacity; capacity <= 0
// means unbounded. Bounded queues preallocate their ring so the steady
// state never allocates.
func NewLatencyQueue(name string, capacity int) *LatencyQueue {
	q := &LatencyQueue{name: name, capacity: capacity}
	if capacity > 0 {
		q.buf = make([]Event, capacity)
	}
	return q
}

// Name returns the queue's diagnostic name.
func (q *LatencyQueue) Name() string { return q.name }

// Len reports the number of queued events.
func (q *LatencyQueue) Len() int { return q.n }

// Full reports whether the queue cannot accept another event.
func (q *LatencyQueue) Full() bool {
	return q.capacity > 0 && q.n >= q.capacity
}

// idx maps a logical position (0 = oldest) to a ring index.
func (q *LatencyQueue) idx(pos int) int {
	i := q.head + pos
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// grow doubles the ring of an unbounded queue, unwrapping it.
func (q *LatencyQueue) grow() {
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

// Push enqueues ev; it reports false (and counts a structural stall)
// when the queue is full.
func (q *LatencyQueue) Push(ev Event) bool {
	if q.Full() {
		q.fullHits++
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
	q.pushes++
	return true
}

// NextReady returns a lower bound on the earliest ReadyCycle among
// queued events in O(1), letting the cycle loop skip a quiescent queue
// entirely: no event is consumable before the returned cycle. The
// bound may be stale-low after removals; consumers that pop until
// failure (the SM fill path) pay at most one extra scan, which itself
// restores exactness. ok is false when the queue is empty.
func (q *LatencyQueue) NextReady() (cycle uint64, ok bool) {
	return q.minReady, q.n > 0
}

// removeAt deletes the event at logical position pos, preserving FIFO
// order by shifting the head side forward (ready events cluster near
// the head, so the shift distance is typically short). The cached
// bound is deliberately not recomputed: removing an event can only
// raise the true minimum, so the bound stays a valid lower bound, and
// the next unsuccessful ready-scan repairs it at no extra cost. This
// makes retiring k fills O(k + n) amortised instead of the O(k·n) the
// old eager recompute paid.
func (q *LatencyQueue) removeAt(pos int) Event {
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

// PopReady dequeues and returns the oldest event whose ReadyCycle has
// arrived, or ok=false when none is ready. FIFO order is preserved
// among ready events. The nothing-ready case is O(1) via the cached
// bound once it is exact; an unsuccessful scan has seen every live
// event, so it re-establishes the exact minimum as a side effect.
func (q *LatencyQueue) PopReady(now uint64) (ev Event, ok bool) {
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

// Stats reports cumulative pushes and full-queue rejections.
func (q *LatencyQueue) Stats() (pushes, fullRejections uint64) {
	return q.pushes, q.fullHits
}

// Reset empties the queue and clears statistics.
func (q *LatencyQueue) Reset() {
	for i := range q.buf {
		q.buf[i] = Event{}
	}
	q.head, q.n, q.minReady = 0, 0, 0
	q.pushes, q.fullHits = 0, 0
}
