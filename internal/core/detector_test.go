package core

import (
	"testing"
	"testing/quick"
)

func TestInterferenceListFirstObservation(t *testing.T) {
	l := NewInterferenceList(8)
	if l.Top(3) != -1 {
		t.Fatal("empty entry should report -1")
	}
	l.Observe(3, 5)
	if l.Top(3) != 5 {
		t.Fatalf("top = %d, want 5", l.Top(3))
	}
	if e := l.entries[3]; e.Counter != 0 {
		t.Fatalf("fresh counter = %d, want 0", e.Counter)
	}
}

func TestInterferenceListSaturation(t *testing.T) {
	l := NewInterferenceList(8)
	for i := 0; i < 10; i++ {
		l.Observe(3, 5)
	}
	if e := l.entries[3]; e.Counter != 3 {
		t.Fatalf("counter = %d, want saturation at 3", e.Counter)
	}
}

// TestInterferenceListReplacementProtocol walks the exact Figure 4c
// scenario: W32 saturates W34's counter; W42 interferes, decrementing;
// W32 returns, incrementing; the tracked WID is replaced only when the
// counter has been decremented to zero.
func TestInterferenceListReplacementProtocol(t *testing.T) {
	l := NewInterferenceList(64)
	// W32 interferes with W34 until saturation (step 1).
	for i := 0; i < 4; i++ {
		l.Observe(34, 32)
	}
	// Step 2: W42 interferes — counter decrements, WID kept.
	l.Observe(34, 42)
	if l.Top(34) != 32 {
		t.Fatal("single foreign observation must not replace a confident entry")
	}
	if e := l.entries[34]; e.Counter != 2 {
		t.Fatalf("counter = %d, want 2 after one decrement", e.Counter)
	}
	// Step 3: W32 again — increments back.
	l.Observe(34, 32)
	if e := l.entries[34]; e.Counter != 3 {
		t.Fatalf("counter = %d, want 3", e.Counter)
	}
	// Now W42 interferes four times: 3→2→1→0, then replacement.
	for i := 0; i < 4; i++ {
		l.Observe(34, 42)
	}
	if l.Top(34) != 42 {
		t.Fatalf("top = %d, want replacement by 42", l.Top(34))
	}
}

func TestInterferenceListIgnoresSelfAndOutOfRange(t *testing.T) {
	l := NewInterferenceList(4)
	l.Observe(2, 2) // self-interference is not tracked
	if l.Top(2) != -1 {
		t.Fatal("self-observation recorded")
	}
	l.Observe(-1, 0)
	l.Observe(7, 0)
	if l.Top(-1) != -1 || l.Top(7) != -1 {
		t.Fatal("out-of-range handling wrong")
	}
}

// Property: counter stays in [0,3] and WID only changes on a zero
// counter (or first fill).
func TestInterferenceListCounterInvariant(t *testing.T) {
	f := func(events []uint8) bool {
		l := NewInterferenceList(8)
		prev := l.entries[0]
		for _, e := range events {
			l.Observe(0, int(e%7)+1)
			cur := l.entries[0]
			if cur.Counter > 3 {
				return false
			}
			if prev.WID != -1 && cur.WID != prev.WID && prev.Counter != 0 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairList(t *testing.T) {
	p := NewPairList(4)
	if p.Redirector(2) != -1 || p.Staller(2) != -1 {
		t.Fatal("fresh pair list not empty")
	}
	p.SetRedirector(2, 0)
	p.SetStaller(2, 3)
	if p.Redirector(2) != 0 || p.Staller(2) != 3 {
		t.Fatal("set/get mismatch")
	}
	p.ClearRedirector(2)
	if p.Redirector(2) != -1 || p.Staller(2) != 3 {
		t.Fatal("clear redirector touched staller")
	}
	p.ClearStaller(2)
	if p.Staller(2) != -1 {
		t.Fatal("clear staller failed")
	}
	if len(p.pairs) != 4 {
		t.Fatal("len wrong")
	}
}
