package memory

import "testing"

func TestLatencyQueueVisibility(t *testing.T) {
	q := NewLatencyQueue("test", 4)
	q.Push(Event{Line: 0x100, ReadyCycle: 10})

	if _, ok := q.PopReady(9); ok {
		t.Fatal("event visible before ReadyCycle")
	}
	ev, ok := q.PopReady(10)
	if !ok || ev.Line != 0x100 {
		t.Fatal("event not visible at ReadyCycle")
	}
	if q.Len() != 0 {
		t.Fatal("pop did not remove event")
	}
}

func TestLatencyQueueFIFOAmongReady(t *testing.T) {
	q := NewLatencyQueue("test", 0)
	q.Push(Event{Line: 1, ReadyCycle: 5})
	q.Push(Event{Line: 2, ReadyCycle: 3})
	q.Push(Event{Line: 3, ReadyCycle: 5})

	// At cycle 5 all are ready; pops must preserve insertion order.
	want := []Addr{1, 2, 3}
	for _, w := range want {
		ev, ok := q.PopReady(5)
		if !ok || ev.Line != w {
			t.Fatalf("pop = (%v,%v), want line %d", ev.Line, ok, w)
		}
	}
}

func TestLatencyQueueSkipsNotReady(t *testing.T) {
	q := NewLatencyQueue("test", 0)
	q.Push(Event{Line: 1, ReadyCycle: 100})
	q.Push(Event{Line: 2, ReadyCycle: 3})

	ev, ok := q.PopReady(10)
	if !ok || ev.Line != 2 {
		t.Fatalf("expected ready line 2 to bypass unready head, got (%v,%v)", ev.Line, ok)
	}
	if q.Len() != 1 {
		t.Fatal("unready event should remain queued")
	}
}

func TestLatencyQueueCapacity(t *testing.T) {
	q := NewLatencyQueue("test", 2)
	if !q.Push(Event{Line: 1}) || !q.Push(Event{Line: 2}) {
		t.Fatal("pushes below capacity should succeed")
	}
	if q.Push(Event{Line: 3}) {
		t.Fatal("push above capacity should fail")
	}
	_, rejections := q.Stats()
	if rejections != 1 {
		t.Fatalf("rejections = %d, want 1", rejections)
	}
}

func TestLatencyQueueReset(t *testing.T) {
	q := NewLatencyQueue("test", 1)
	q.Push(Event{Line: 7})
	q.Push(Event{Line: 8}) // rejected
	q.Reset()
	if q.Len() != 0 {
		t.Fatal("reset did not empty queue")
	}
	pushes, rejections := q.Stats()
	if pushes != 0 || rejections != 0 {
		t.Fatal("reset did not clear stats")
	}
}

func TestLatencyQueueNextReady(t *testing.T) {
	q := NewLatencyQueue("t", 0)
	if _, ok := q.NextReady(); ok {
		t.Fatal("empty queue reported a ready cycle")
	}
	q.Push(Event{Line: 0x100, ReadyCycle: 30})
	q.Push(Event{Line: 0x200, ReadyCycle: 10})
	q.Push(Event{Line: 0x300, ReadyCycle: 20})
	if rc, ok := q.NextReady(); !ok || rc != 10 {
		t.Fatalf("NextReady = %d,%v, want 10,true", rc, ok)
	}
	// After popping the minimum event, NextReady must stay a valid
	// lower bound: nothing is consumable before it.
	if ev, ok := q.PopReady(15); !ok || ev.Line != 0x200 {
		t.Fatalf("PopReady(15) = %+v,%v, want line 0x200", ev, ok)
	}
	if rc, ok := q.NextReady(); !ok || rc > 20 {
		t.Fatalf("after pop, NextReady = %d,%v, want a lower bound <= 20", rc, ok)
	}
	// Nothing is consumable before the true minimum, and NextReady
	// reports it exactly.
	if _, ok := q.PopReady(19); ok {
		t.Fatal("PopReady before the true minimum succeeded")
	}
	if rc, ok := q.NextReady(); !ok || rc != 20 {
		t.Fatalf("after failed pop, NextReady = %d,%v, want exact 20,true", rc, ok)
	}
}

func TestLatencyQueueLazyMinRepair(t *testing.T) {
	q := NewLatencyQueue("t", 0)
	q.Push(Event{Line: 0x100, ReadyCycle: 5})
	q.Push(Event{Line: 0x200, ReadyCycle: 40})
	q.Push(Event{Line: 0x300, ReadyCycle: 30})

	// After popping the minimum, NextReady is still a lower bound.
	if ev, ok := q.PopReady(5); !ok || ev.Line != 0x100 {
		t.Fatalf("PopReady(5) = %+v,%v, want line 0x100", ev, ok)
	}
	if rc, ok := q.NextReady(); !ok || rc > 30 {
		t.Fatalf("after pop, NextReady = %d,%v, want bound <= 30", rc, ok)
	}
	// A missed pop changes nothing, and NextReady is exact.
	if _, ok := q.PopReady(29); ok {
		t.Fatal("PopReady(29) found an event before the true minimum")
	}
	if rc, ok := q.NextReady(); !ok || rc != 30 {
		t.Fatalf("after failed pop, NextReady = %d,%v, want exact 30,true", rc, ok)
	}
	// Pops at the bound succeed in ReadyCycle order.
	if ev, ok := q.PopReady(30); !ok || ev.Line != 0x300 {
		t.Fatalf("PopReady(30) = %+v,%v, want line 0x300", ev, ok)
	}
	if ev, ok := q.PopReady(40); !ok || ev.Line != 0x200 {
		t.Fatalf("PopReady(40) = %+v,%v, want line 0x200", ev, ok)
	}
	if _, ok := q.NextReady(); ok {
		t.Fatal("empty queue reported a ready cycle")
	}
}

// TestLatencyQueueDrain pops every event ready at one cycle, the way
// the SM retires fills.
func TestLatencyQueueDrain(t *testing.T) {
	q := NewLatencyQueue("t", 0)
	q.Push(Event{Line: 0x100, ReadyCycle: 5})
	q.Push(Event{Line: 0x200, ReadyCycle: 50})
	q.Push(Event{Line: 0x300, ReadyCycle: 5})
	q.Push(Event{Line: 0x400, ReadyCycle: 7})
	var got []Addr
	for {
		ev, ok := q.PopReady(10)
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
	q := NewLatencyQueue("t", 4)
	next := Addr(0)
	push := func(rc uint64) {
		if !q.Push(Event{Line: next, ReadyCycle: rc}) {
			t.Fatalf("push %d rejected", next)
		}
		next += 0x40
	}
	var want Addr
	pop := func(now uint64) {
		ev, ok := q.PopReady(now)
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
	// Refill a wrapped queue to capacity and check unready skipping.
	push(100)
	push(5)
	push(100)
	push(5)
	if rc, _ := q.NextReady(); rc != 5 {
		t.Fatalf("NextReady = %d, want 5", rc)
	}
	if ev, ok := q.PopReady(10); !ok || ev.ReadyCycle != 5 {
		t.Fatalf("PopReady skipped wrong event: %+v %v", ev, ok)
	}
	if ev, ok := q.PopReady(10); !ok || ev.ReadyCycle != 5 {
		t.Fatalf("second ready event missing: %+v %v", ev, ok)
	}
	if _, ok := q.PopReady(10); ok {
		t.Fatal("unready event popped")
	}
}
