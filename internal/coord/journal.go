package coord

// The write-ahead journal makes a coordinator restartable: every
// change to the shard lease table appends one NDJSON line to
// sweep.CoordJournalFile next to the sweep's results, and replaying
// those lines on server startup reconstructs the in-flight
// coordinator — same sweep id, same shard partition, same lease
// holders and lease counts — so workers that survived the outage keep
// heartbeating the lease ids they already hold.
//
// Durability model: cell *outcomes* live in the results store (the
// cell-level log of record); the journal persists only control-plane
// state. Deltas are appended without fsync — a kill -9 loses nothing
// already written (the page cache outlives the process), and losing
// the tail to a power failure merely re-leases some shards, because
// the store's dedup keeps settled cells settled regardless of what
// the lease table believes. Snapshots (creation, compaction, the
// terminal rewrite) go through a synced temp file + rename, so the
// journal is never half a table.

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// Journal entry kinds.
const (
	entrySnapshot = "snapshot" // full shard table: creation, compaction
	entryLease    = "lease"    // shard granted to a worker
	entryRenew    = "renew"    // heartbeat pushed the expiry forward
	entryExpire   = "expire"   // lease reclaimed, shard pending again
	entryRetire   = "retire"   // shard done
	// Admin transitions. The coordinator persists admin actions as a
	// full snapshot rewrite (rare, and the synced rewrite also carries
	// the lease-budget reset), so these delta kinds are written by no
	// current code path — replay keeps accepting them for journals from
	// older builds and for the corruption-hardening property tests.
	entryQuarantine   = "quarantine"   // operator parked the shard
	entryUnquarantine = "unquarantine" // operator released the shard
	entryFinish       = "finish"       // sweep reached a terminal state
	// entryAdopt is the server hand-off line of older builds, which
	// ran a two-server failover pair. No current code writes it, and it
	// touches no shard, so replay accepts it as a no-op: such a journal
	// still recovers on the one server that owns its -sweepdir.
	entryAdopt = "adopt"
)

// shardSnap is one shard's full state inside a snapshot entry.
// Requires is written for operators reading the file; recovery
// recomputes it from the re-expanded cells.
type shardSnap struct {
	ID       int        `json:"id"`
	Indexes  []int      `json:"indexes"`
	Requires []string   `json:"requires,omitempty"`
	State    string     `json:"state"`
	Worker   string     `json:"worker,omitempty"`
	Expires  *time.Time `json:"expires,omitempty"`
	Leases   int        `json:"leases,omitempty"`
	Renews   int        `json:"renews,omitempty"`
}

// journalEntry is one NDJSON line of the journal: a snapshot carries
// the whole table, a delta names one shard, finish carries the
// terminal state (for forensics — replay only needs the kind).
type journalEntry struct {
	T       string      `json:"t"`
	Sweep   string      `json:"sweep,omitempty"`
	Shards  []shardSnap `json:"shards,omitempty"`
	Shard   int         `json:"shard,omitempty"`
	Worker  string      `json:"worker,omitempty"`
	Expires *time.Time  `json:"expires,omitempty"`
	Leases  int         `json:"leases,omitempty"`
	State   string      `json:"state,omitempty"`
	Error   string      `json:"error,omitempty"`
}

// journal appends entries to one coordinator's journal file. All
// methods tolerate a nil receiver or a disabled file, so journaling
// failures degrade durability, never liveness: the sweep keeps running
// unjournaled and the failure is logged once. Calls are serialised by
// the owning coordinator's mutex.
type journal struct {
	path     string
	f        *os.File
	pending  int // delta entries since the last snapshot rewrite
	counters *metrics.CoordCounters
}

// openJournal opens (or creates) the journal for appending. Callers
// rewrite() a snapshot immediately after, which atomically discards
// whatever a previous process left behind.
func openJournal(path string, counters *metrics.CoordCounters) (*journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("coord: open journal: %w", err)
	}
	return &journal{path: path, f: f, counters: counters}, nil
}

func (j *journal) disabled() bool { return j == nil || j.f == nil }

// append writes one delta entry as a single line.
func (j *journal) append(e journalEntry) {
	if j.disabled() {
		return
	}
	line, err := json.Marshal(e)
	if err == nil {
		_, err = j.f.Write(append(line, '\n'))
	}
	if err != nil {
		log.Printf("coord: journal %s: %v (disabling journal; the sweep continues without crash recovery)", j.path, err)
		j.f.Close()
		j.f = nil
		return
	}
	j.pending++
	j.counters.JournalEntries.Inc()
}

// rewrite atomically replaces the journal with the given entries — a
// snapshot, optionally followed by a terminal entry — via a synced
// temp file and rename, reporting whether the replacement landed. On
// failure the old journal stays in place: safe for a compaction (a
// long journal of the same table replays fine), but a caller whose
// snapshot describes a *different* table — a fresh coordinator
// resetting a previous process's journal — must disable the journal
// on false rather than append deltas onto foreign history.
func (j *journal) rewrite(entries ...journalEntry) bool {
	if j.disabled() {
		return false
	}
	tmp := j.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err == nil {
		for _, e := range entries {
			var line []byte
			if line, err = json.Marshal(e); err != nil {
				break
			}
			if _, err = f.Write(append(line, '\n')); err != nil {
				break
			}
		}
		if serr := f.Sync(); err == nil {
			err = serr
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, j.path)
		}
	}
	if err != nil {
		os.Remove(tmp)
		log.Printf("coord: journal %s: snapshot rewrite failed: %v (keeping the long journal)", j.path, err)
		return false
	}
	old := j.f
	j.f, err = os.OpenFile(j.path, os.O_WRONLY|os.O_APPEND, 0o644)
	old.Close()
	if err != nil {
		log.Printf("coord: journal %s: reopen after rewrite: %v (disabling journal)", j.path, err)
		j.f = nil
		return false
	}
	j.pending = 0
	j.counters.JournalEntries.Add(uint64(len(entries)))
	return true
}

func (j *journal) close() {
	if j.disabled() {
		return
	}
	j.f.Close()
	j.f = nil
}

// maxJournalLineBytes caps one journal line on replay. A snapshot of
// the largest permissible sweep (sweep.MaxCellsCeiling cells) fits
// comfortably; longer runs of newline-less bytes are corruption.
const maxJournalLineBytes = 4 << 20

// replayState is a journal folded to its end: the shard table as the
// crashed process last recorded it.
type replayState struct {
	sweepID  string
	shards   []shardSnap
	finished bool
	entries  int // well-formed entries applied
	corrupt  int // complete-but-unusable lines (torn tail excluded)
}

// replayJournal reads the journal at path and applies every entry
// through the shared torn-tail-tolerant NDJSON scanner: a torn final
// line (a kill mid-append) is dropped silently; any other unusable
// line counts as corrupt and is skipped — the lease table degrades to
// "some shards look pending", which the store-level dedup makes safe.
// A missing file returns fs.ErrNotExist for callers to treat as
// "nothing to recover".
func replayJournal(path string) (*replayState, error) {
	st := &replayState{}
	corrupt, err := sweep.ScanNDJSON(path, maxJournalLineBytes, func(line []byte, torn bool) bool {
		var e journalEntry
		if json.Unmarshal(line, &e) != nil {
			return false
		}
		return st.apply(e)
	})
	if err != nil {
		return nil, err
	}
	st.corrupt = corrupt
	return st, nil
}

// apply folds one entry into the state, reporting whether it was
// usable — well-formed, naming a shard that exists, and describing a
// transition the coordinator could actually have journaled. The last
// point is load-bearing for corrupted journals: a retired shard can
// never be resurrected by a later lease/renew/expire/quarantine line
// (the coordinator journals none of those after a retire), so a
// flipped bit cannot un-finish settled work.
func (st *replayState) apply(e journalEntry) bool {
	switch e.T {
	case entrySnapshot:
		for i, snap := range e.Shards {
			if snap.ID != i {
				return false // snapshots list shards in id order
			}
		}
		st.sweepID = e.Sweep
		st.shards = append([]shardSnap(nil), e.Shards...)
	case entryLease:
		sh := st.shard(e.Shard)
		if sh == nil || sh.State == shardStateDone || sh.State == shardStateQuarantined {
			return false
		}
		sh.State = shardStateLeased
		sh.Worker = e.Worker
		sh.Expires = e.Expires
		sh.Renews = 0
		if e.Leases > 0 {
			sh.Leases = e.Leases
		} else {
			sh.Leases++
		}
	case entryRenew:
		sh := st.shard(e.Shard)
		if sh == nil || sh.State != shardStateLeased {
			return false
		}
		sh.Expires = e.Expires
		sh.Renews++
	case entryExpire:
		sh := st.shard(e.Shard)
		if sh == nil || sh.State != shardStateLeased {
			return false
		}
		sh.State = shardStatePending
		sh.Worker = ""
		sh.Expires = nil
	case entryRetire:
		sh := st.shard(e.Shard)
		if sh == nil {
			return false
		}
		sh.State = shardStateDone
		sh.Worker = ""
		sh.Expires = nil
	case entryQuarantine:
		sh := st.shard(e.Shard)
		if sh == nil || sh.State == shardStateDone {
			return false
		}
		sh.State = shardStateQuarantined
		sh.Worker = ""
		sh.Expires = nil
	case entryUnquarantine:
		sh := st.shard(e.Shard)
		if sh == nil || sh.State != shardStateQuarantined {
			return false
		}
		sh.State = shardStatePending
	case entryFinish:
		st.finished = true
	case entryAdopt:
		// An older build's hand-off line: nothing to apply.
	default:
		return false
	}
	st.entries++
	return true
}

func (st *replayState) shard(id int) *shardSnap {
	if id < 0 || id >= len(st.shards) {
		return nil
	}
	return &st.shards[id]
}
