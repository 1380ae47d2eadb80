package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testSpec() Spec {
	return Spec{
		Name: "t",
		Axes: Axes{Schedulers: []string{"GTO"}, Benchmarks: []string{"SYRK", "ATAX"}},
	}
}

// okRec builds a minimal successful record for store tests.
func okRec(key string, ipc float64) CellRecord {
	return CellRecord{Key: key, Bench: "SYRK", Sched: "GTO", Status: StatusOK, IPC: ipc,
		Result: json.RawMessage(fmt.Sprintf(`{"ipc":%g}`, ipc))}
}

func TestStoreRoundTrip(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	spec := testSpec()
	st, err := Create(dir, "id-1", spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	recs := []CellRecord{
		{Key: "k1", Index: 0, Bench: "SYRK", Sched: "GTO", Status: StatusOK, IPC: 1.5, Result: json.RawMessage(`{"ipc":1.5}`)},
		{Key: "k2", Index: 1, Bench: "ATAX", Sched: "GTO", Status: StatusFailed, Error: "boom"},
	}
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	done := re.Completed()
	if len(done) != 1 || done["k1"] != 1.5 {
		t.Errorf("completed = %v, want only k1→1.5 (failed cells re-run)", done)
	}
	if re.Manifest().ID != "id-1" || re.Manifest().TotalCells != 2 {
		t.Errorf("manifest = %+v", re.Manifest())
	}
}

func TestStoreTruncatedTail(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	spec := testSpec()
	st, err := Create(dir, "id", spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(CellRecord{Key: "k1", Status: StatusOK, IPC: 2}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Simulate a kill mid-append: a torn, unterminated final line.
	f, err := os.OpenFile(filepath.Join(dir, ResultsFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"k2","status":"o`)
	f.Close()

	re, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if done := re.Completed(); len(done) != 1 {
		t.Errorf("completed = %v, want the torn record dropped", done)
	}
	// The store stays appendable after the torn tail.
	if err := re.Append(CellRecord{Key: "k3", Status: StatusOK, IPC: 1}); err != nil {
		t.Fatal(err)
	}
}

func TestStoreMidFileCorruptionIsCountedNotResumed(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	spec := testSpec()
	st, err := Create(dir, "id", spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(CellRecord{Key: "k1", Status: StatusOK, IPC: 2}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Corrupt the middle of the file (a complete, newline-terminated
	// garbage line), append a valid record after it, then a torn tail.
	f, err := os.OpenFile(filepath.Join(dir, ResultsFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("{\"key\":\"k-corrupt\",oops}\n")
	f.WriteString("{\"status\":\"ok\",\"ipc\":9}\n") // parses but keyless: also corrupt
	b, _ := json.Marshal(CellRecord{Key: "k2", Status: StatusOK, IPC: 3})
	f.Write(append(b, '\n'))
	f.WriteString(`{"key":"k3","status":"o`) // torn tail: tolerated, not counted
	f.Close()

	re, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	done := re.Completed()
	if len(done) != 2 || done["k1"] != 2 || done["k2"] != 3 {
		t.Errorf("completed = %v, want k1 and k2 (lines after corruption must still load)", done)
	}
	if got := re.corrupt; got != 2 {
		t.Errorf("CorruptLines = %d, want 2 (mid-file garbage + keyless line; torn tail excluded)", got)
	}
}

func TestStoreOverlongLineIsCorruptNotSlurped(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	spec := testSpec()
	st, err := Create(dir, "id", spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(CellRecord{Key: "k1", Status: StatusOK, IPC: 2}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	f, err := os.OpenFile(filepath.Join(dir, ResultsFile), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A newline-less run of garbage longer than the line cap, then a
	// valid record: the garbage counts as one corrupt line, the record
	// after it still loads.
	junk := strings.Repeat("x", maxLineBytes+512)
	f.WriteString(junk + "\n")
	b, _ := json.Marshal(CellRecord{Key: "k2", Status: StatusOK, IPC: 3})
	f.Write(append(b, '\n'))
	f.Close()

	re, err := Open(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	done := re.Completed()
	if len(done) != 2 || done["k2"] != 3 {
		t.Errorf("completed = %v, want k1 and k2", done)
	}
	if got := re.corrupt; got != 1 {
		t.Errorf("CorruptLines = %d, want 1 for the over-long line", got)
	}
}

func TestStoreRejectsNamelessSpec(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	if _, err := Create(dir, "id", Spec{}, 1); err == nil {
		t.Error("Create with a nameless spec should fail")
	}
	if st, err := Create(dir, "id", testSpec(), 2); err != nil {
		t.Fatal(err)
	} else {
		st.Close()
	}
	// The old behaviour silently resumed a nameless spec against any
	// directory; now it is rejected.
	if _, err := Open(dir, Spec{}); err == nil || !strings.Contains(err.Error(), "nameless") {
		t.Errorf("Open with a nameless spec = %v, want nameless-spec rejection", err)
	}
}

func TestStoreMergeDedupsAndLastOKWins(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	st, err := Create(dir, "id", testSpec(), 4)
	if err != nil {
		t.Fatal(err)
	}
	// Shard A: k1 ok, k2 failed.
	merged, skipped, err := st.Merge([]CellRecord{
		{Key: "k1", Status: StatusOK, IPC: 1.5},
		{Key: "k2", Status: StatusFailed, Error: "boom"},
	})
	if err != nil || merged != 2 || skipped != 0 {
		t.Fatalf("merge A = (%d, %d, %v)", merged, skipped, err)
	}
	// Shard B: duplicate k1 ok (dropped), k2 re-run ok (appended: last
	// ok wins over the earlier failure), late k1 failure (dropped — a
	// stored success is final), keyless garbage (dropped).
	merged, skipped, err = st.Merge([]CellRecord{
		{Key: "k1", Status: StatusOK, IPC: 9},
		{Key: "k2", Status: StatusOK, IPC: 2.5},
		{Key: "k1", Status: StatusFailed, Error: "late"},
		{Status: StatusOK, IPC: 3},
	})
	if err != nil || merged != 1 || skipped != 3 {
		t.Fatalf("merge B = (%d, %d, %v)", merged, skipped, err)
	}
	done := st.Completed()
	if len(done) != 2 || done["k1"] != 1.5 || done["k2"] != 2.5 {
		t.Errorf("completed = %v, want k1→1.5 (first ok kept) and k2→2.5 (failed-then-ok)", done)
	}
	st.Close()

	// A reopened store agrees, and each cell has exactly one ok record.
	recs, corrupt, err := ReadRecords(dir)
	if err != nil || corrupt != 0 {
		t.Fatalf("ReadRecords = (%d recs, %d corrupt, %v)", len(recs), corrupt, err)
	}
	okCount := map[string]int{}
	for _, r := range recs {
		if r.Status == StatusOK {
			okCount[r.Key]++
		}
	}
	if okCount["k1"] != 1 || okCount["k2"] != 1 {
		t.Errorf("ok records per key = %v, want exactly one each", okCount)
	}
}

func TestMergeStoreCollapsesShards(t *testing.T) {
	base := t.TempDir()
	spec := testSpec()
	mk := func(name string, recs ...CellRecord) string {
		dir := filepath.Join(base, name)
		st, err := Create(dir, name, spec, len(recs))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := st.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		st.Close()
		return dir
	}
	a := mk("a",
		CellRecord{Key: "k1", Status: StatusOK, IPC: 1},
		CellRecord{Key: "k2", Status: StatusFailed, Error: "boom"})
	b := mk("b",
		CellRecord{Key: "k2", Status: StatusOK, IPC: 2},
		CellRecord{Key: "k1", Status: StatusOK, IPC: 7}) // dup across shards

	dst, err := Create(filepath.Join(base, "merged"), "m", spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	for _, src := range []string{a, b} {
		if _, _, err := MergeStore(dst, src); err != nil {
			t.Fatal(err)
		}
	}
	done := dst.Completed()
	if len(done) != 2 || done["k1"] != 1 || done["k2"] != 2 {
		t.Errorf("merged completed = %v, want k1→1, k2→2", done)
	}

	// A source directory pinned to a different sweep is refused — the
	// same cannot-mix-sweeps invariant Open enforces.
	other := spec
	other.Name = "other"
	foreign := filepath.Join(base, "foreign")
	st, err := Create(foreign, "f", other, 1)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	if _, _, err := MergeStore(dst, foreign); err == nil || !strings.Contains(err.Error(), "refusing to merge") {
		t.Errorf("MergeStore across sweeps = %v, want refusal", err)
	}
}

func TestStoreSpecMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	if st, err := Create(dir, "id", testSpec(), 2); err != nil {
		t.Fatal(err)
	} else {
		st.Close()
	}
	other := testSpec()
	other.Axes.Schedulers = []string{"CCWS"}
	if _, err := Open(dir, other); err == nil || !strings.Contains(err.Error(), "not the requested spec") {
		t.Errorf("err = %v, want spec-mismatch", err)
	}
	// Creating over an existing sweep is refused.
	if _, err := Create(dir, "id2", testSpec(), 2); err == nil {
		t.Error("Create over an existing manifest should fail")
	}
}

// TestStoreRefusesCompactedDirectory: a directory an older version
// compacted keeps records in segments outside results.ndjson. Opening,
// reading or merging it must fail with an error naming the directory,
// not silently treat its segmented cells as never run.
func TestStoreRefusesCompactedDirectory(t *testing.T) {
	base := t.TempDir()
	spec := testSpec()
	dir := filepath.Join(base, "old")
	st, err := Create(dir, "id", spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(okRec("k2", 2)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	compactLikeAnOlderVersion(t, dir)

	if _, err := Open(dir, spec); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("Open = %v, want a refusal naming %s", err, dir)
	}
	if _, _, err := ReadRecords(dir); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("ReadRecords = %v, want a refusal naming %s", err, dir)
	}
	dst, err := Create(filepath.Join(base, "dst"), "dst", spec, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if _, _, err := MergeStore(dst, dir); err == nil || !strings.Contains(err.Error(), dir) {
		t.Errorf("MergeStore = %v, want a refusal naming %s", err, dir)
	}
	if n := len(dst.Completed()); n != 0 {
		t.Errorf("refused merge still appended %d record(s)", n)
	}
}

// compactLikeAnOlderVersion leaves dir the way an older, compacting
// version of the store did: one record frozen into a segment listed in
// segments/segments.json, the rest in results.ndjson.
func compactLikeAnOlderVersion(t *testing.T, dir string) {
	t.Helper()
	seg, err := json.Marshal(okRec("k1", 1))
	if err != nil {
		t.Fatal(err)
	}
	seg = append(seg, '\n')
	list := fmt.Sprintf(`{"segments":[{"name":"seg-000001.ndjson","records":1,"bytes":%d,"gzip":false}]}`, len(seg))
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{"seg-000001.ndjson": seg, "segments.json": []byte(list)} {
		if err := os.WriteFile(filepath.Join(dir, "segments", name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// follow copies st's results file into w the way streamResults does —
// the unsent prefix Follow reports, then a wait for the next wake —
// until the store closes.
func follow(st *Store, w *bytes.Buffer) error {
	var sent int64
	for {
		size, wake := st.Follow()
		if err := st.CopyRange(w, sent, size); err != nil {
			return err
		}
		sent = size
		if wake == nil {
			return nil
		}
		<-wake
	}
}

// TestFollowReceivesAppends: a follower attached to a fresh store is
// woken by every Append, the size it is then told grows by exactly
// the appended line, and the bytes it copies up to that size are the
// file's bytes, in order.
func TestFollowReceivesAppends(t *testing.T) {
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", testSpec(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	size, wake := st.Follow()
	if size != 0 || wake == nil {
		t.Fatalf("Follow on a fresh store = (%d, %v)", size, wake)
	}
	var got bytes.Buffer
	for i := 0; i < 3; i++ {
		rec := okRec(fmt.Sprintf("k%d", i), 1)
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		select {
		case <-wake:
		default:
			t.Fatalf("append %d did not wake the follower", i)
		}
		next, nextWake := st.Follow()
		if next != size+int64(len(line))+1 {
			t.Fatalf("after append %d Follow reports %d bytes, want %d", i, next, size+int64(len(line))+1)
		}
		if err := st.CopyRange(&got, size, next); err != nil {
			t.Fatal(err)
		}
		size, wake = next, nextWake
	}
	want, err := os.ReadFile(st.ResultsPath())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Error("followed bytes differ from the stream on disk")
	}
}

// TestStoreConcurrentAppendAndFollow races appenders against followers
// that attach at different moments — the -race workout for the
// store's locking. Each follower must end, once the store closes, with
// exactly the bytes of results.ndjson, and those bytes must hold every
// appended record exactly once.
func TestStoreConcurrentAppendAndFollow(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	st, err := Create(dir, "id", testSpec(), 128)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter, followers = 4, 32, 6
	got := make([]bytes.Buffer, followers)
	errs := make(chan error, followers)
	var appended sync.WaitGroup
	appended.Add(writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			defer appended.Done()
			for i := 0; i < perWriter; i++ {
				if err := st.Append(okRec(fmt.Sprintf("w%d-k%d", w, i), 1)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for i := range got {
		go func(i int) {
			time.Sleep(time.Duration(i) * 200 * time.Microsecond) // attach mid-stream
			errs <- follow(st, &got[i])
		}(i)
	}
	appended.Wait()
	st.Close()
	for range got {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a follower never saw the store close")
		}
	}

	want, err := os.ReadFile(filepath.Join(dir, ResultsFile))
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !bytes.Equal(got[i].Bytes(), want) {
			t.Fatalf("follower %d holds %d bytes that differ from the %d in %s", i, got[i].Len(), len(want), ResultsFile)
		}
	}
	recs, corrupt := recordsFromBytes(want)
	if corrupt != 0 || len(recs) != writers*perWriter {
		t.Fatalf("stream holds %d records (%d corrupt), want %d", len(recs), corrupt, writers*perWriter)
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

// TestFollowClosedStore: Close wakes a waiting follower, and on a
// closed store Follow returns no wake channel — so a follower ends its
// stream instead of waiting forever — with the file's full size.
func TestFollowClosedStore(t *testing.T) {
	st, err := Create(filepath.Join(t.TempDir(), "s"), "id", testSpec(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(okRec("k1", 1)); err != nil {
		t.Fatal(err)
	}
	size, wake := st.Follow()
	if wake == nil {
		t.Fatal("Follow on an open store returned no wake channel")
	}
	st.Close()
	select {
	case <-wake:
	default:
		t.Fatal("Close did not wake the follower")
	}
	final, wake := st.Follow()
	if wake != nil {
		t.Error("Follow on a closed store returned a wake channel")
	}
	info, err := os.Stat(st.ResultsPath())
	if err != nil {
		t.Fatal(err)
	}
	if final != size || final != info.Size() {
		t.Errorf("closed-store size = %d, want %d (the whole file)", final, info.Size())
	}
}
