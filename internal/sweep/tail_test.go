package sweep

import (
	"bytes"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/metrics"
)

// TestSubscribeReceivesAppends: a follower sees every line the append
// path publishes, byte-for-byte, and unsubscribing drops it from the
// hub.
func TestSubscribeReceivesAppends(t *testing.T) {
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", testSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	off, ch, cancel := st.Subscribe()
	if off != 0 || ch == nil {
		t.Fatalf("Subscribe on a fresh store = (%d, %v)", off, ch)
	}
	if got := st.TailSubscribers(); got != 1 {
		t.Fatalf("TailSubscribers = %d, want 1", got)
	}
	var want bytes.Buffer
	for i := 0; i < 3; i++ {
		if err := st.Append(okRec(fmt.Sprintf("k%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.CopyRange(&want, 0, st.LogicalSize()); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	for i := 0; i < 3; i++ {
		got.Write(<-ch)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("broadcast lines differ from the stream on disk")
	}
	cancel()
	cancel() // idempotent
	if got := st.TailSubscribers(); got != 0 {
		t.Errorf("TailSubscribers after cancel = %d, want 0", got)
	}
}

// TestSubscribeLagDropAndResync: a follower that stops draining is cut
// off (channel closed, lag counter bumped) instead of backpressuring
// the append path — and recovers losslessly by resubscribing and
// replaying from the byte offset it had counted.
func TestSubscribeLagDropAndResync(t *testing.T) {
	old := tailSubBuffer
	tailSubBuffer = 2
	defer func() { tailSubBuffer = old }()

	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", testSpec(), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var ctr metrics.StoreCounters
	st.SetCounters(&ctr)

	_, ch, cancel := st.Subscribe()
	defer cancel()
	for i := 0; i < 5; i++ { // buffer holds 2: the 3rd publish drops the laggard
		if err := st.Append(okRec(fmt.Sprintf("k%d", i), 1)); err != nil {
			t.Fatal(err)
		}
	}
	var sent int64
	n := 0
	for line := range ch { // drains the 2 buffered lines, then sees the close
		sent += int64(len(line))
		n++
	}
	if n != 2 {
		t.Fatalf("laggard drained %d lines, want the %d buffered", n, 2)
	}
	if got := ctr.Snapshot().TailLagged; got != 1 {
		t.Errorf("tail_lagged = %d, want 1", got)
	}
	if got := st.TailSubscribers(); got != 0 {
		t.Fatalf("TailSubscribers after lag drop = %d, want 0", got)
	}

	// Resync: resubscribe, copy [sent, off), and the stream is whole.
	off, ch2, cancel2 := st.Subscribe()
	defer cancel2()
	var caught bytes.Buffer
	if err := st.CopyRange(&caught, sent, off); err != nil {
		t.Fatal(err)
	}
	var whole bytes.Buffer
	if err := st.CopyRange(&whole, 0, st.LogicalSize()); err != nil {
		t.Fatal(err)
	}
	if sent+int64(caught.Len()) != int64(whole.Len()) {
		t.Errorf("resync: %d drained + %d caught up != %d total", sent, caught.Len(), whole.Len())
	}
	if !bytes.Equal(caught.Bytes(), whole.Bytes()[sent:]) {
		t.Error("resynced bytes differ from the stream")
	}
	_ = ch2
}

// TestSubscribeClosedStore: Close ends every live subscription, and a
// late Subscribe reports end-of-stream (nil channel) instead of
// blocking a follower forever.
func TestSubscribeClosedStore(t *testing.T) {
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Append(okRec("k1", 1))
	_, ch, cancel := st.Subscribe()
	defer cancel()
	st.Close()
	if _, ok := <-ch; ok {
		t.Error("subscription channel still open after Close")
	}
	off, ch2, cancel2 := st.Subscribe()
	defer cancel2()
	if ch2 != nil {
		t.Error("Subscribe on a closed store returned a live channel")
	}
	if off != st.LogicalSize() {
		t.Errorf("closed-store offset = %d, want the full stream %d", off, st.LogicalSize())
	}
}

// TestCopyRangeSplicesSegmentsAndTail: ranges crossing segment
// boundaries — and landing mid-segment or mid-tail — read back exactly
// the bytes of the logical stream, mixed gzip or not.
func TestCopyRangeSplicesSegmentsAndTail(t *testing.T) {
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", testSpec(), 9)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	append3 := func(base int) {
		for i := 0; i < 3; i++ {
			if err := st.Append(okRec(fmt.Sprintf("k%d", base+i), float64(base+i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	append3(0)
	st.SetOptions(StoreOptions{GzipSegments: true})
	if _, ok, err := st.Compact(); err != nil || !ok {
		t.Fatalf("Compact 1 = (%v, %v)", ok, err)
	}
	append3(3)
	st.SetOptions(StoreOptions{})
	if _, ok, err := st.Compact(); err != nil || !ok {
		t.Fatalf("Compact 2 = (%v, %v)", ok, err)
	}
	append3(6) // lives in the tail

	whole := streamBytes(t, st)
	if int64(len(whole)) != st.LogicalSize() {
		t.Fatalf("stream is %d bytes, LogicalSize says %d", len(whole), st.LogicalSize())
	}
	segs := st.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %+v, want 2", segs)
	}
	// Probe ranges: inside segment 1, across the 1→2 boundary, across
	// segment 2 into the tail, tail only, everything, empty, past-end.
	cuts := []int64{0, segs[0].Bytes / 2, segs[0].Bytes, segs[0].Bytes + segs[1].Bytes/2,
		segs[0].Bytes + segs[1].Bytes, st.LogicalSize() - 5, st.LogicalSize()}
	for _, from := range cuts {
		for _, to := range cuts {
			if from > to {
				continue
			}
			var buf bytes.Buffer
			if err := st.CopyRange(&buf, from, to); err != nil {
				t.Fatalf("CopyRange(%d, %d): %v", from, to, err)
			}
			if !bytes.Equal(buf.Bytes(), whole[from:to]) {
				t.Errorf("CopyRange(%d, %d) diverged from the stream", from, to)
			}
		}
	}
	// Reading past the end yields what exists, silently — a follower's
	// racing offset must not error.
	var buf bytes.Buffer
	if err := st.CopyRange(&buf, st.LogicalSize()-5, st.LogicalSize()+100); err != nil {
		t.Fatalf("CopyRange past end: %v", err)
	}
	if !bytes.Equal(buf.Bytes(), whole[len(whole)-5:]) {
		t.Error("past-end CopyRange diverged")
	}
	if err := st.CopyRange(&buf, -1, 3); err == nil {
		t.Error("negative range must error")
	}
}

// TestStoreConcurrentAppendAndCompact races appenders, a compaction
// loop, subscribers and range readers against each other — the -race
// workout for the store's locking. Every appended record must survive,
// exactly once.
func TestStoreConcurrentAppendAndCompact(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	st, err := Create(dir, "id", testSpec(), 64)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 32
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := st.Append(okRec(fmt.Sprintf("w%d-k%d", w, i), 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(2)
	go func() { // compaction loop
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if _, _, err := st.Compact(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()
	go func() { // follower churn: subscribe, drain a little, resync
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			off, ch, cancel := st.Subscribe()
			var buf bytes.Buffer
			if err := st.CopyRange(&buf, 0, off); err != nil {
				t.Error(err)
			}
			if ch != nil {
				select {
				case <-ch:
				default:
				}
			}
			cancel()
		}
	}()
	wg.Wait()
	close(stop)
	aux.Wait()
	st.Close()

	recs, corrupt, err := ReadRecords(dir)
	if err != nil || corrupt != 0 {
		t.Fatalf("ReadRecords = (%d corrupt, %v)", corrupt, err)
	}
	if len(recs) != writers*perWriter {
		t.Fatalf("store holds %d records, want %d", len(recs), writers*perWriter)
	}
	seen := map[string]int{}
	for _, r := range recs {
		seen[r.Key]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Errorf("record %s appears %d times", k, n)
		}
	}
}
