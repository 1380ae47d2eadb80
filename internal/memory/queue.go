package memory

// Event is a timestamped fill flowing through a latency queue: a line
// whose data becomes visible at ReadyCycle. It is 24 bytes, and it is
// filled and consumed in place (Add, Pop), so the per-line path never
// copies one.
type Event struct {
	// Line is the affected line address (fills are line-granular).
	Line Addr
	// ReadyCycle is the first cycle at which the event may be consumed.
	ReadyCycle uint64
	// WarpID is the warp whose request the fill answers.
	WarpID int32
	// Payload carries a model-specific marker (the SM's fill path).
	Payload uint8
}

// LatencyQueue is a bounded queue whose entries become visible only
// after their ReadyCycle, modelling a fixed-latency pipe such as the
// L1↔L2 interconnect or the response queue in Figure 7a.
//
// Ordering guarantee: among events that are ready at a given cycle,
// Pop serves them strictly in insertion (FIFO) order; an unready event
// never blocks a ready one behind it. This is the property the SM fill
// path relies on for deterministic replay — two fills ready on the
// same cycle always retire in issue order.
//
// Events live in a slot pool with a free list. Add hands out a slot
// for the caller to fill and Pop hands back the slot of the event it
// dequeues, so an event is written once and read where it lies. A
// sorted array of small keys {ReadyCycle, insertion sequence, slot}
// orders them by (ReadyCycle, sequence); Add inserts its key from the
// tail, where new fills almost always belong. The ready events are
// therefore a prefix of the keys, so NextReady and Ready read the head
// key (always exact) and Pop takes the lowest sequence number in that
// prefix, which is the oldest ready event. Live keys start at a head
// index, so popping near the front shifts only the keys before the
// popped one. Bounded queues preallocate everything, so the steady
// state never allocates.
type LatencyQueue struct {
	capacity int
	keys     []queueKey // live keys are keys[head:], sorted
	head     int
	events   []Event // slot pool
	free     []int32 // vacant slots of events
	seq      uint64  // insertion sequence of the next Add
}

// queueKey orders one queued event.
type queueKey struct {
	ready uint64
	seq   uint64
	slot  int32
}

// NewLatencyQueue returns a queue with the given capacity; capacity <= 0
// means unbounded. Bounded queues preallocate their storage; the key
// array holds twice the capacity so compacting it is amortised O(1).
func NewLatencyQueue(capacity int) *LatencyQueue {
	q := &LatencyQueue{capacity: capacity}
	if capacity > 0 {
		q.keys = make([]queueKey, 0, 2*capacity)
		q.events = make([]Event, 0, capacity)
		q.free = make([]int32, 0, capacity)
	}
	return q
}

// Len reports the number of queued events.
func (q *LatencyQueue) Len() int { return len(q.keys) - q.head }

// Full reports whether the queue cannot accept another event.
func (q *LatencyQueue) Full() bool {
	return q.capacity > 0 && q.Len() >= q.capacity
}

// Add enqueues an event that becomes ready at cycle ready and returns
// its slot, zeroed but for ReadyCycle, for the caller to fill in
// place. It returns nil when the queue is full. The slot is the
// caller's to write until the next Add.
func (q *LatencyQueue) Add(ready uint64) *Event {
	if q.Full() {
		return nil
	}
	var slot int32
	if n := len(q.free); n > 0 {
		slot, q.free = q.free[n-1], q.free[:n-1]
	} else {
		slot = int32(len(q.events))
		q.events = append(q.events, Event{})
	}
	// Out of room at the tail: slide the live keys down when the dead
	// prefix is at least half the array, else let append grow it.
	if len(q.keys) == cap(q.keys) && 2*q.head >= len(q.keys) {
		q.keys = q.keys[:copy(q.keys, q.keys[q.head:])]
		q.head = 0
	}
	k := queueKey{ready: ready, seq: q.seq, slot: slot}
	q.keys = append(q.keys, k)
	i := len(q.keys) - 1
	for ; i > q.head && q.keys[i-1].ready > k.ready; i-- {
		q.keys[i] = q.keys[i-1]
	}
	q.keys[i] = k
	q.seq++
	ev := &q.events[slot]
	*ev = Event{ReadyCycle: ready}
	return ev
}

// NextReady returns the earliest ReadyCycle among queued events: no
// event is consumable before it, and one is at it. ok is false when
// the queue is empty.
func (q *LatencyQueue) NextReady() (cycle uint64, ok bool) {
	if q.head == len(q.keys) {
		return 0, false
	}
	return q.keys[q.head].ready, true
}

// Ready reports whether an event is consumable at cycle now. It reads
// one key.
func (q *LatencyQueue) Ready(now uint64) bool {
	return q.head < len(q.keys) && q.keys[q.head].ready <= now
}

// Pop dequeues the oldest event whose ReadyCycle has arrived and
// returns its slot, which stays intact until the next Add. FIFO order
// is preserved among ready events. Call it only after Ready(now)
// reported true.
func (q *LatencyQueue) Pop(now uint64) *Event {
	h := q.head
	best := h
	for i := h + 1; i < len(q.keys) && q.keys[i].ready <= now; i++ {
		if q.keys[i].seq < q.keys[best].seq {
			best = i
		}
	}
	slot := q.keys[best].slot
	copy(q.keys[h+1:best+1], q.keys[h:best])
	if q.head = h + 1; q.head == len(q.keys) {
		q.keys, q.head = q.keys[:0], 0
	}
	q.free = append(q.free, slot)
	return &q.events[slot]
}
