package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Store file names inside a sweep directory.
const (
	ManifestFile = "manifest.json"
	ResultsFile  = "results.ndjson"
)

// Manifest pins a results directory to one sweep spec, so resuming
// with a different spec fails loudly instead of silently mixing cells.
type Manifest struct {
	ID      string    `json:"id"`
	Spec    Spec      `json:"spec"`
	SpecKey string    `json:"spec_key"`
	Created time.Time `json:"created"`
	// TotalCells is the spec's expansion size at creation time.
	TotalCells int `json:"total_cells"`
	// Cancelled is stamped when a client cancels the sweep, so startup
	// recovery leaves it alone; the re-POST that resumes it lifts it.
	Cancelled bool `json:"cancelled,omitempty"`
}

// CellRecord is one NDJSON line of the results file: the cell's
// identity, how it went, and (when it succeeded) the encoded
// harness.CellResult. If a cell appears more than once (a failed cell
// re-run on resume), the last record wins.
type CellRecord struct {
	Key     string `json:"key"`
	Index   int    `json:"index"`
	Bench   string `json:"bench"`
	Sched   string `json:"sched"`
	Config  string `json:"config,omitempty"`
	Status  string `json:"status"` // "ok" or "failed"
	Error   string `json:"error,omitempty"`
	Source  string `json:"source,omitempty"` // computed, cache, coalesced
	Elapsed int64  `json:"elapsed_ms"`
	// IPC is duplicated out of Result so resumed geomeans and quick
	// post-processing need not re-parse every payload.
	IPC    float64         `json:"ipc,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// Store is the append-only on-disk result set of one sweep: a
// manifest plus one NDJSON file, results.ndjson. Appends are
// serialised, each record a single write of one complete line, so a
// killed process can lose at most the line being written — Open
// tolerates (and repairs) a torn final line. The file only grows while
// the store is open, so any prefix of it a reader has been told about
// never changes; that is what lets followers copy it without the lock.
type Store struct {
	dir      string
	manifest Manifest

	mu       sync.Mutex
	f        *os.File
	fsync    bool                // fsync after every append
	size     int64               // bytes in results.ndjson
	done     map[string]float64  // key → IPC of the last "ok" record
	failed   map[string]struct{} // keys with failures and no success yet
	corrupt  int                 // complete-but-unparseable lines seen by load
	observer func(CellRecord)    // sees each appended record (metrics)
	wake     chan struct{}       // closed by the next Append or Close; nil until someone follows
}

// Sink receives cell records as a sweep executes. *Store is the
// durable implementation.
type Sink interface {
	Append(CellRecord) error
	Completed() map[string]float64
}

// Create initialises dir (which must not already contain a manifest)
// for the given sweep and opens it for appending.
func Create(dir, id string, spec Spec, totalCells int) (*Store, error) {
	if spec.Name == "" {
		return nil, errors.New("sweep: refusing to create a store for a nameless spec")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: create store: %w", err)
	}
	mpath := filepath.Join(dir, ManifestFile)
	m := Manifest{
		ID:         id,
		Spec:       spec,
		SpecKey:    spec.Key(),
		Created:    time.Now().UTC(),
		TotalCells: totalCells,
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	// O_EXCL makes directory ownership atomic: of two racing creators,
	// exactly one wins and the other fails loudly instead of both
	// appending to the same results file.
	f, err := os.OpenFile(mpath, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		if os.IsExist(err) {
			return nil, fmt.Errorf("sweep: %s already holds a sweep (resume it or pick another directory)", dir)
		}
		return nil, fmt.Errorf("sweep: write manifest: %w", err)
	}
	_, werr := f.Write(append(b, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return nil, fmt.Errorf("sweep: write manifest: %w", werr)
	}
	return openResults(dir, m)
}

// Open reopens an existing store for resumption. The stored manifest's
// spec key must always match spec — a nameless spec is rejected rather
// than silently resuming against whatever the directory holds.
func Open(dir string, spec Spec) (*Store, error) {
	if spec.Name == "" {
		return nil, errors.New("sweep: refusing to open a store against a nameless spec")
	}
	m, err := readManifest(dir)
	if err != nil {
		return nil, err
	}
	if m.SpecKey != spec.Key() {
		return nil, fmt.Errorf("sweep: %s holds sweep %q (spec key %.12s…), not the requested spec (%.12s…)",
			dir, m.Spec.Name, m.SpecKey, spec.Key())
	}
	return openResults(dir, m)
}

func readManifest(dir string) (Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("sweep: no sweep at %s: %w", dir, err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return Manifest{}, fmt.Errorf("sweep: corrupt manifest in %s: %w", dir, err)
	}
	// Older versions also ran successive-halving searches, whose specs
	// carry a "search" clause. Decoding would drop the clause, so the
	// spec's key would stop naming the directory and the sweep would be
	// skipped without a word; refuse it by name instead.
	var legacy struct {
		Spec struct {
			Search *struct{} `json:"search"`
		} `json:"spec"`
	}
	if json.Unmarshal(b, &legacy) == nil && legacy.Spec.Search != nil {
		return Manifest{}, fmt.Errorf("sweep: %s holds a search sweep, which this version no longer runs; re-run its cells from a grid spec with axes.configs (see README, \"Crash safety\")", dir)
	}
	return m, nil
}

func openResults(dir string, m Manifest) (*Store, error) {
	s := &Store{
		dir:      dir,
		manifest: m,
		done:     map[string]float64{},
		failed:   map[string]struct{}{},
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	f, err := os.OpenFile(s.ResultsPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open results: %w", err)
	}
	s.f = f
	if s.corrupt > 0 {
		log.Printf("sweep: %s: ignored %d corrupt result line(s); their cells count as incomplete and will re-run", s.ResultsPath(), s.corrupt)
	}
	return s, nil
}

// load replays results.ndjson into the completed-cell set. A torn
// final line — a kill mid-append — is truncated away from the file
// itself, not just skipped by the parse: the next append would
// otherwise fuse with the fragment into one corrupt line, and follower
// byte offsets must agree with the bytes on disk. Any other
// unparseable line is mid-file corruption: it is counted (and logged
// by openResults) instead of being mistaken for cells to re-run.
func (s *Store) load() error {
	data, err := readResults(s.dir)
	if err != nil {
		return err
	}
	if n := completeLen(data); n < len(data) {
		data = data[:n]
		if err := os.Truncate(s.ResultsPath(), int64(n)); err != nil {
			return fmt.Errorf("sweep: drop torn results tail: %w", err)
		}
	}
	recs, corrupt := recordsFromBytes(data)
	for _, rec := range recs {
		s.record(rec)
	}
	s.corrupt = corrupt
	s.size = int64(len(data))
	return nil
}

// legacySegmentList is where older versions of this store, which
// compacted records out of results.ndjson into segment files, listed
// those segments.
const legacySegmentList = "segments/segments.json"

// readResults reads a store directory's results file whole; a missing
// file reads empty. A directory an older version compacted is refused:
// part of its records live outside results.ndjson, so reading the file
// alone would silently re-run their cells.
func readResults(dir string) ([]byte, error) {
	if _, err := os.Stat(filepath.Join(dir, legacySegmentList)); err == nil {
		return nil, fmt.Errorf("sweep: %s was compacted by an older version: the records %s lists are not in %s; fold them back in front of it first (see README, \"Result store\")",
			dir, legacySegmentList, ResultsFile)
	}
	data, err := os.ReadFile(filepath.Join(dir, ResultsFile))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("sweep: read results: %w", err)
	}
	return data, nil
}

// completeLen returns the length of data up to and including its last
// newline — the complete-line prefix a torn append leaves intact.
func completeLen(data []byte) int {
	if i := bytes.LastIndexByte(data, '\n'); i >= 0 {
		return i + 1
	}
	return 0
}

// writeFileSync atomically replaces path with data: temp file in the
// same directory, fsync, rename.
func writeFileSync(path string, data []byte) error {
	dir, base := filepath.Split(path)
	tmp, err := os.CreateTemp(dir, "."+base+".sync*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// record folds one record into the completed/failed cell sets.
// Callers hold s.mu (or, during load, sole ownership).
func (s *Store) record(rec CellRecord) {
	switch rec.Status {
	case StatusOK:
		s.done[rec.Key] = rec.IPC
		delete(s.failed, rec.Key)
	case StatusFailed:
		if _, ok := s.done[rec.Key]; !ok {
			s.failed[rec.Key] = struct{}{}
		}
	}
}

// maxLineBytes caps one NDJSON line. Real records are kilobytes; a
// longer run of newline-less bytes is corruption and is skipped in
// buffer-sized chunks instead of being slurped into memory whole.
const maxLineBytes = 1 << 20

// scanNDJSON reads NDJSON line by line, handing each non-blank line
// to use, which reports whether it was usable. A torn final line (no
// trailing newline — a kill mid-append) is passed with torn=true and
// never counted corrupt; any other unusable line — use rejected it, or
// it exceeded maxLine — is.
func scanNDJSON(rd io.Reader, maxLine int, use func(line []byte, torn bool) bool) (corrupt int, err error) {
	r := bufio.NewReaderSize(rd, maxLine)
	for {
		line, rerr := r.ReadSlice('\n')
		if rerr == bufio.ErrBufferFull {
			// Over-long line: count it once, discard to the newline.
			corrupt++
			for rerr == bufio.ErrBufferFull {
				_, rerr = r.ReadSlice('\n')
			}
			if rerr == io.EOF {
				return corrupt, nil
			}
			if rerr != nil {
				return corrupt, rerr
			}
			continue
		}
		if rerr != nil && rerr != io.EOF {
			return corrupt, rerr
		}
		torn := rerr == io.EOF && len(line) > 0 // unterminated tail
		if len(bytes.TrimSpace(line)) > 0 {
			if !use(line, torn) && !torn {
				corrupt++
			}
		}
		if rerr == io.EOF {
			return corrupt, nil
		}
	}
}

// useRecord builds the scanNDJSON callback that collects well-formed
// CellRecords: complete lines that fail to parse or parse without a
// cell key are corrupt.
func useRecord(recs *[]CellRecord) func(line []byte, torn bool) bool {
	return func(line []byte, torn bool) bool {
		var rec CellRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			return false
		}
		*recs = append(*recs, rec)
		return true
	}
}

// recordsFromBytes parses NDJSON result lines held in memory,
// tolerating a torn final line.
func recordsFromBytes(data []byte) (recs []CellRecord, corrupt int) {
	corrupt, _ = scanNDJSON(bytes.NewReader(data), maxLineBytes, useRecord(&recs))
	return recs, corrupt
}

// ReadRecords loads every well-formed record of a store directory's
// results file, in append order, tolerating a torn final line.
// Corrupt mid-file lines are counted, not fatal. It is a read-only
// scan: the torn line is skipped, not truncated — reopening the store
// repairs it.
func ReadRecords(dir string) (recs []CellRecord, corrupt int, err error) {
	data, err := readResults(dir)
	if err != nil {
		return nil, 0, err
	}
	recs, corrupt = recordsFromBytes(data)
	return recs, corrupt, nil
}

// Record statuses.
const (
	StatusOK     = "ok"
	StatusFailed = "failed"
)

// SetObserver installs a callback that sees every record Append
// accepts — runner results and merged records alike — which is where
// per-sweep RED metrics hook in. Pass nil to detach.
func (s *Store) SetObserver(fn func(CellRecord)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.observer = fn
}

// SetSync turns the fsync after every append on or off. Off, a kill
// loses nothing Append returned (the line reached the OS), but a power
// loss can drop the last unflushed lines — their cells simply re-run
// on resume; on, a settled record survives power loss at the cost of
// one fsync per cell. Call before the store sees concurrent appends.
func (s *Store) SetSync(on bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fsync = on
}

// Append writes one record as a single NDJSON line, updates the
// completed set, and wakes the followers waiting for the file to
// grow. With sync on, the line is fsync'd before Append returns.
func (s *Store) Append(rec CellRecord) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line = append(line, '\n')
	s.mu.Lock()
	if s.f == nil {
		s.mu.Unlock()
		return errors.New("sweep: append to a closed store")
	}
	_, werr := s.f.Write(line)
	if werr == nil && s.fsync {
		werr = s.f.Sync()
	}
	if werr == nil {
		s.record(rec)
		s.size += int64(len(line))
		s.wakeLocked()
	}
	obs := s.observer
	s.mu.Unlock()
	if werr != nil {
		return fmt.Errorf("sweep: append result: %w", werr)
	}
	if obs != nil {
		obs(rec)
	}
	return nil
}

// wakeLocked releases every follower waiting on the current wake
// channel. Callers hold s.mu.
func (s *Store) wakeLocked() {
	if s.wake != nil {
		close(s.wake)
		s.wake = nil
	}
}

// Follow reports how many bytes of results.ndjson hold appended
// records and, while the store is open, a channel the next Append or
// Close closes. Those bytes never change, so a follower copies the
// ones it has not sent with CopyRange, holding no lock, and then waits
// on the channel. A nil channel means the store is closed: size is
// final, and after copying up to it the stream is complete.
func (s *Store) Follow() (size int64, wake <-chan struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return s.size, nil
	}
	if s.wake == nil {
		s.wake = make(chan struct{})
	}
	return s.size, s.wake
}

// CopyRange writes bytes [from, to) of results.ndjson to w. to must
// not exceed a size Follow reported; that prefix of the file never
// changes, so the copy takes no lock and never holds up Append. It
// works on a closed store (the file remains).
func (s *Store) CopyRange(w io.Writer, from, to int64) error {
	if from < 0 || from > to {
		return fmt.Errorf("sweep: bad copy range [%d, %d)", from, to)
	}
	if from == to {
		return nil
	}
	f, err := os.Open(s.ResultsPath())
	if err != nil {
		return fmt.Errorf("sweep: copy range: %w", err)
	}
	defer f.Close()
	n, err := io.Copy(w, io.NewSectionReader(f, from, to-from))
	if err == nil && n < to-from {
		err = fmt.Errorf("sweep: copy range: %s ends at byte %d, before %d", s.ResultsPath(), from+n, to)
	}
	return err
}

// Merge appends foreign records (another shard's store) into this
// store with the CellRecord dedup semantics: a cell that already has a
// stored success is final, so both duplicate "ok" records and late
// "failed" records for it are skipped; everything else appends in
// order, which preserves last-ok-wins for failed-then-ok sequences.
// It returns how many records were appended and how many were dropped
// as duplicates (or keyless).
func (s *Store) Merge(recs []CellRecord) (merged, skipped int, err error) {
	for _, rec := range recs {
		if rec.Key == "" {
			skipped++
			continue
		}
		s.mu.Lock()
		_, done := s.done[rec.Key]
		s.mu.Unlock()
		if done {
			skipped++
			continue
		}
		if err := s.Append(rec); err != nil {
			return merged, skipped, err
		}
		merged++
	}
	return merged, skipped, nil
}

// MergeStore merges every record of the store at srcDir into dst —
// how separate hand-sharded stores collapse into one canonical store.
// The source manifest must pin the same spec as dst, upholding the
// cannot-mix-sweeps invariant across merges. A source an older version
// compacted is refused, as ReadRecords refuses it.
func MergeStore(dst *Store, srcDir string) (merged, skipped int, err error) {
	srcM, err := readManifest(srcDir)
	if err != nil {
		return 0, 0, err
	}
	if want := dst.Manifest().SpecKey; srcM.SpecKey != want {
		return 0, 0, fmt.Errorf("sweep: refusing to merge %s: it holds sweep %q (spec key %.12s…), not %q (%.12s…)",
			srcDir, srcM.Spec.Name, srcM.SpecKey, dst.Manifest().Spec.Name, want)
	}
	recs, corrupt, err := ReadRecords(srcDir)
	if err != nil {
		return 0, 0, fmt.Errorf("sweep: merge %s: %w", srcDir, err)
	}
	if corrupt > 0 {
		log.Printf("sweep: merge %s: ignored %d corrupt result line(s)", srcDir, corrupt)
	}
	return dst.Merge(recs)
}

// CorruptLines reports how many complete-but-unparseable result lines
// load encountered (mid-file corruption; a torn tail is not counted),
// for tests until sweep records carry it.
func (s *Store) CorruptLines() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// FailedCells returns a copy of the keys that have recorded failures
// and no success yet — the cells a resumed run re-executes.
func (s *Store) FailedCells() map[string]struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]struct{}, len(s.failed))
	for k := range s.failed {
		out[k] = struct{}{}
	}
	return out
}

// Completed returns a copy of the completed cell set: key → recorded
// IPC.
func (s *Store) Completed() map[string]float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]float64, len(s.done))
	for k, v := range s.done {
		out[k] = v
	}
	return out
}

// Manifest returns the pinned manifest.
func (s *Store) Manifest() Manifest {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.manifest
}

// MarkCancelled stamps the manifest cancelled, so startup recovery
// skips the sweep. Idempotent; a closed store can be stamped too.
func (s *Store) MarkCancelled() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest.Cancelled {
		return nil
	}
	s.manifest.Cancelled = true
	return s.rewriteManifestLocked()
}

// MarkRunning records id as the sweep's current run and lifts any
// cancelled stamp: the manifest side of resuming a sweep, so a restart
// resumes it under the id its client holds.
func (s *Store) MarkRunning(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.manifest.ID == id && !s.manifest.Cancelled {
		return nil
	}
	s.manifest.ID, s.manifest.Cancelled = id, false
	return s.rewriteManifestLocked()
}

// rewriteManifestLocked atomically rewrites the manifest file from the
// in-memory copy. Callers hold s.mu.
func (s *Store) rewriteManifestLocked() error {
	b, err := json.MarshalIndent(s.manifest, "", "  ")
	if err != nil {
		return err
	}
	if err := writeFileSync(filepath.Join(s.dir, ManifestFile), append(b, '\n')); err != nil {
		return fmt.Errorf("sweep: rewrite manifest: %w", err)
	}
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// ResultsPath returns the path of the store's NDJSON results file,
// which holds every record the store has accepted.
func (s *Store) ResultsPath() string { return filepath.Join(s.dir, ResultsFile) }

// Close releases the results file and wakes every follower, which
// then sees a nil wake channel and ends its stream.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.wakeLocked()
	if s.f == nil {
		return nil
	}
	err := s.f.Close()
	s.f = nil
	return err
}
