package memory

import (
	"testing"
	"unsafe"
)

// addLine enqueues a fill of line ready at cycle ready the way the SM
// does, through Add and the slot it returns, and reports whether the
// queue took it.
func addLine(q *LatencyQueue, line Addr, ready uint64) bool {
	ev := q.Add(ready)
	if ev == nil {
		return false
	}
	ev.Line = line
	return true
}

// popReady dequeues the way the SM retires fills, through Ready and
// Pop, returning a copy of the event, or ok=false when none is ready.
func popReady(q *LatencyQueue, now uint64) (ev Event, ok bool) {
	if !q.Ready(now) {
		return Event{}, false
	}
	return *q.Pop(now), true
}

func TestLatencyQueueVisibility(t *testing.T) {
	q := NewLatencyQueue(4)
	addLine(q, 0x100, 10)

	if _, ok := popReady(q, 9); ok {
		t.Fatal("event visible before its ready cycle")
	}
	ev, ok := popReady(q, 10)
	if !ok || ev.Line != 0x100 {
		t.Fatal("event not visible at its ready cycle")
	}
	if q.Len() != 0 {
		t.Fatal("pop did not remove event")
	}
}

func TestLatencyQueueFIFOAmongReady(t *testing.T) {
	q := NewLatencyQueue(0)
	addLine(q, 1, 5)
	addLine(q, 2, 3)
	addLine(q, 3, 5)

	// At cycle 5 all are ready; pops must preserve insertion order.
	want := []Addr{1, 2, 3}
	for _, w := range want {
		ev, ok := popReady(q, 5)
		if !ok || ev.Line != w {
			t.Fatalf("pop = (%v,%v), want line %d", ev.Line, ok, w)
		}
	}
}

func TestLatencyQueueSkipsNotReady(t *testing.T) {
	q := NewLatencyQueue(0)
	addLine(q, 1, 100)
	addLine(q, 2, 3)

	ev, ok := popReady(q, 10)
	if !ok || ev.Line != 2 {
		t.Fatalf("expected ready line 2 to bypass unready head, got (%v,%v)", ev.Line, ok)
	}
	if q.Len() != 1 {
		t.Fatal("unready event should remain queued")
	}
}

func TestLatencyQueueCapacity(t *testing.T) {
	q := NewLatencyQueue(2)
	if !addLine(q, 1, 0) || !addLine(q, 2, 0) {
		t.Fatal("pushes below capacity should succeed")
	}
	if addLine(q, 3, 0) {
		t.Fatal("push above capacity should fail")
	}
}

func TestLatencyQueueNextReady(t *testing.T) {
	q := NewLatencyQueue(0)
	if _, ok := q.NextReady(); ok {
		t.Fatal("empty queue reported a ready cycle")
	}
	addLine(q, 0x100, 30)
	addLine(q, 0x200, 10)
	addLine(q, 0x300, 20)
	if rc, ok := q.NextReady(); !ok || rc != 10 {
		t.Fatalf("NextReady = %d,%v, want 10,true", rc, ok)
	}
	// After popping the minimum event, NextReady must stay a valid
	// lower bound: nothing is consumable before it.
	if ev, ok := popReady(q, 15); !ok || ev.Line != 0x200 {
		t.Fatalf("PopReady(15) = %+v,%v, want line 0x200", ev, ok)
	}
	if rc, ok := q.NextReady(); !ok || rc > 20 {
		t.Fatalf("after pop, NextReady = %d,%v, want a lower bound <= 20", rc, ok)
	}
	// Nothing is consumable before the true minimum, and NextReady
	// reports it exactly.
	if _, ok := popReady(q, 19); ok {
		t.Fatal("PopReady before the true minimum succeeded")
	}
	if rc, ok := q.NextReady(); !ok || rc != 20 {
		t.Fatalf("after failed pop, NextReady = %d,%v, want exact 20,true", rc, ok)
	}
}

func TestLatencyQueueLazyMinRepair(t *testing.T) {
	q := NewLatencyQueue(0)
	addLine(q, 0x100, 5)
	addLine(q, 0x200, 40)
	addLine(q, 0x300, 30)

	// After popping the minimum, NextReady is still a lower bound.
	if ev, ok := popReady(q, 5); !ok || ev.Line != 0x100 {
		t.Fatalf("PopReady(5) = %+v,%v, want line 0x100", ev, ok)
	}
	if rc, ok := q.NextReady(); !ok || rc > 30 {
		t.Fatalf("after pop, NextReady = %d,%v, want bound <= 30", rc, ok)
	}
	// A missed pop changes nothing, and NextReady is exact.
	if _, ok := popReady(q, 29); ok {
		t.Fatal("PopReady(29) found an event before the true minimum")
	}
	if rc, ok := q.NextReady(); !ok || rc != 30 {
		t.Fatalf("after failed pop, NextReady = %d,%v, want exact 30,true", rc, ok)
	}
	// Pops at the bound succeed in ready-cycle order.
	if ev, ok := popReady(q, 30); !ok || ev.Line != 0x300 {
		t.Fatalf("PopReady(30) = %+v,%v, want line 0x300", ev, ok)
	}
	if ev, ok := popReady(q, 40); !ok || ev.Line != 0x200 {
		t.Fatalf("PopReady(40) = %+v,%v, want line 0x200", ev, ok)
	}
	if _, ok := q.NextReady(); ok {
		t.Fatal("empty queue reported a ready cycle")
	}
}

// TestLatencyQueueDrain pops every event ready at one cycle, the way
// the SM retires fills.
func TestLatencyQueueDrain(t *testing.T) {
	q := NewLatencyQueue(0)
	addLine(q, 0x100, 5)
	addLine(q, 0x200, 50)
	addLine(q, 0x300, 5)
	addLine(q, 0x400, 7)
	var got []Addr
	for {
		ev, ok := popReady(q, 10)
		if !ok {
			break
		}
		got = append(got, ev.Line)
	}
	// FIFO among ready: 0x100 and 0x300 (cycle 5) retire in push order,
	// then 0x400; the unready 0x200 never blocks them.
	want := []Addr{0x100, 0x300, 0x400}
	if len(got) != len(want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order %v, want %v", got, want)
		}
	}
	if q.Len() != 1 {
		t.Fatalf("after drain Len = %d, want 1", q.Len())
	}
}

// TestLatencyQueueWraparound pushes and pops past the end of the
// queue's preallocated storage, checking FIFO order and NextReady
// survive the queue reusing it.
func TestLatencyQueueWraparound(t *testing.T) {
	q := NewLatencyQueue(4)
	next := Addr(0)
	push := func(rc uint64) {
		if !addLine(q, next, rc) {
			t.Fatalf("push %d rejected", next)
		}
		next += 0x40
	}
	var want Addr
	pop := func(now uint64) {
		ev, ok := popReady(q, now)
		if !ok || ev.Line != want {
			t.Fatalf("pop = %v,%v, want line %v", ev.Line, ok, want)
		}
		want += 0x40
	}
	for round := 0; round < 5; round++ {
		push(uint64(round))
		push(uint64(round))
		pop(uint64(round))
		pop(uint64(round))
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after wraparound rounds: %d", q.Len())
	}
	// Refill a wrapped queue to capacity and check unready skipping:
	// the lines ready at cycle 5 are the second and the fourth.
	first := next
	push(100)
	push(5)
	push(100)
	push(5)
	if rc, _ := q.NextReady(); rc != 5 {
		t.Fatalf("NextReady = %d, want 5", rc)
	}
	if ev, ok := popReady(q, 10); !ok || ev.Line != first+0x40 {
		t.Fatalf("PopReady skipped wrong event: %+v %v", ev, ok)
	}
	if ev, ok := popReady(q, 10); !ok || ev.Line != first+0xc0 {
		t.Fatalf("second ready event missing: %+v %v", ev, ok)
	}
	if _, ok := popReady(q, 10); ok {
		t.Fatal("unready event popped")
	}
}

// TestEventSize pins the fill event at two words: the queue keeps the
// ready cycle in its keys, so the event does not carry it.
func TestEventSize(t *testing.T) {
	if n := unsafe.Sizeof(Event{}); n != 16 {
		t.Errorf("Event is %d bytes, want 16", n)
	}
}
