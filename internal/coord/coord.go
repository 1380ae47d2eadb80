// Package coord distributes one sweep across worker processes: a
// Coordinator owns the sweep's canonical store, partitions its
// incomplete cells into shards, and leases shards (explicit cell-index
// sets) to workers over HTTP with a TTL. Workers heartbeat to keep a
// lease alive and upload their NDJSON records on completion; the
// coordinator merges uploads into the store (dedup by cell key,
// last-ok-wins), expires stale leases, and re-assigns their shards —
// a killed worker costs only its in-flight shard, never the sweep.
//
// The Hub aggregates the live coordinators of a server, serves the
// /coord API, and plugs into sweep.Manager as its Distributor.
package coord

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/sweep"
)

// ErrStale reports that a worker acted on a lease it no longer holds —
// the shard expired, was re-assigned, or the sweep is over. Workers
// abandon the shard on seeing it; it is never a server fault.
var ErrStale = errors.New("coord: stale lease")

// Defaults for Config zero values.
const (
	DefaultShardSize = 8
	DefaultTTL       = 30 * time.Second
	DefaultMaxLeases = 5
)

// Config shapes shard partitioning and lease lifetimes for every
// coordinator a hub creates.
type Config struct {
	// ShardSize is the number of cells per leasable shard (0 =
	// DefaultShardSize). Smaller shards re-assign less work when a
	// worker dies but cost more round-trips.
	ShardSize int
	// TTL is how long a lease lives without a heartbeat (0 =
	// DefaultTTL).
	TTL time.Duration
	// MaxLeases bounds how often one shard may be handed out (0 =
	// DefaultMaxLeases). A shard that exhausts it fails the sweep
	// terminally: something is systematically wrong (oversized uploads,
	// version-skewed workers, a poisonous cell), and failing loudly
	// beats re-leasing the same shard forever while the sweep reads
	// "running".
	MaxLeases int
}

func (c Config) shardSize() int {
	if c.ShardSize <= 0 {
		return DefaultShardSize
	}
	return c.ShardSize
}

func (c Config) ttl() time.Duration {
	if c.TTL <= 0 {
		return DefaultTTL
	}
	return c.TTL
}

func (c Config) maxLeases() int {
	if c.MaxLeases <= 0 {
		return DefaultMaxLeases
	}
	return c.MaxLeases
}

// shardState is a shard's position in the lease lifecycle.
type shardState int

const (
	shardPending     shardState = iota // waiting for a worker
	shardLeased                        // held by a worker, TTL running
	shardDone                          // records merged
	shardQuarantined                   // parked by an operator; never leased
)

// Shard state names on the wire (journal snapshots).
const (
	shardStatePending     = "pending"
	shardStateLeased      = "leased"
	shardStateDone        = "done"
	shardStateQuarantined = "quarantined"
)

func (s shardState) name() string {
	switch s {
	case shardLeased:
		return shardStateLeased
	case shardDone:
		return shardStateDone
	case shardQuarantined:
		return shardStateQuarantined
	default:
		return shardStatePending
	}
}

func shardStateFromName(name string) (shardState, bool) {
	switch name {
	case shardStatePending:
		return shardPending, true
	case shardStateLeased:
		return shardLeased, true
	case shardStateDone:
		return shardDone, true
	case shardStateQuarantined:
		return shardQuarantined, true
	}
	return 0, false
}

// shard is one leasable unit of work: an explicit set of cell indexes
// plus the capability tags a worker must advertise to lease it (the
// partition groups cells by requirement, so every shard is
// homogeneous — one constraint per lease).
type shard struct {
	id       int
	indexes  []int
	requires []string
	state    shardState
	worker   string
	expires  time.Time
	granted  time.Time // when the current lease was handed out
	leases   int       // times handed out (re-assignment shows as >1)
	renews   int       // heartbeats received for the current lease
}

// WorkerID identifies a leasing worker plus the capabilities it
// advertises: tags a shard's requires must be a subset of, and an
// optional ceiling on how many cells it will accept per lease.
type WorkerID struct {
	Name     string
	Tags     []string
	MaxCells int
}

// cellOutcome tracks per-cell merge state so progress counts each cell
// once across duplicate uploads and failed-then-ok sequences.
type cellOutcome int

const (
	cellPendingOutcome cellOutcome = iota
	cellFailed
	cellOK
)

// Coordinator owns one distributed sweep: the spec, the canonical
// store, and the shard lease table. It implements sweep.DistributedRun.
type Coordinator struct {
	id        string
	spec      sweep.Spec
	store     *sweep.Store
	ttl       time.Duration
	maxLeases int
	counters  *metrics.CoordCounters
	onProg    func(sweep.Progress)
	jr        *journal
	// reg is the hub-level fleet registry (self-locking; the lock
	// order is c.mu before reg.mu, never the reverse). A coordinator
	// built outside a hub gets a private one.
	reg *workerRegistry

	mu         sync.Mutex
	shards     []*shard
	cells      map[string]cellOutcome // cell key → merge outcome
	keyByIndex map[int]string         // cell index → cell key
	reqByIndex map[int][]string       // cell index → required tags
	prog       sweep.Progress
	gm         sweep.Geo
	closed     bool
	done       chan struct{}
}

// appendShards groups todo cell indexes by their capability
// requirements and splits each group into shards of at most size
// cells, appending to dst with consecutive ids. Grouping keeps every
// shard homogeneous, so a lease either fits a worker or it does not —
// no shard is half-runnable.
func appendShards(dst []*shard, todo []int, reqByIndex map[int][]string, size int) []*shard {
	type group struct {
		requires []string
		idxs     []int
	}
	var order []string
	groups := map[string]*group{}
	for _, idx := range todo {
		req := reqByIndex[idx]
		sig := strings.Join(req, ",")
		g, ok := groups[sig]
		if !ok {
			g = &group{requires: req}
			groups[sig] = g
			order = append(order, sig)
		}
		g.idxs = append(g.idxs, idx)
	}
	for _, sig := range order {
		g := groups[sig]
		for start := 0; start < len(g.idxs); start += size {
			end := min(start+size, len(g.idxs))
			dst = append(dst, &shard{id: len(dst), indexes: g.idxs[start:end], requires: g.requires})
		}
	}
	return dst
}

// NewCoordinator partitions the sweep's incomplete cells into shards
// of cfg.ShardSize and returns a coordinator ready to lease them.
// Cells already complete in the store are skipped (and seed the
// geomean), so resuming a killed distributed sweep re-runs only the
// missing cells. A sweep with nothing left finishes immediately.
func NewCoordinator(id string, spec sweep.Spec, cells []sweep.Cell, store *sweep.Store, cfg Config, reg *workerRegistry, counters *metrics.CoordCounters, onProgress func(sweep.Progress)) *Coordinator {
	if counters == nil {
		counters = &metrics.CoordCounters{}
	}
	if reg == nil {
		reg = newWorkerRegistry(cfg.ttl())
	}
	c := &Coordinator{
		id:         id,
		spec:       spec,
		store:      store,
		ttl:        cfg.ttl(),
		maxLeases:  cfg.maxLeases(),
		counters:   counters,
		onProg:     onProgress,
		reg:        reg,
		cells:      make(map[string]cellOutcome, len(cells)),
		keyByIndex: make(map[int]string, len(cells)),
		reqByIndex: make(map[int][]string, len(cells)),
		prog:       sweep.Progress{State: sweep.StateRunning, Total: len(cells)},
		done:       make(chan struct{}),
	}
	completed := store.Completed()
	var todo []int
	for _, cell := range cells {
		key := cell.Key()
		c.keyByIndex[cell.Index] = key
		c.reqByIndex[cell.Index] = cell.Requires
		if ipc, ok := completed[key]; ok {
			c.cells[key] = cellOK
			c.prog.Done++
			c.prog.Skipped++
			c.gm.Add(ipc)
			continue
		}
		c.cells[key] = cellPendingOutcome
		todo = append(todo, cell.Index)
	}
	c.shards = appendShards(nil, todo, c.reqByIndex, cfg.shardSize())
	jr, err := openJournal(store.CoordJournalPath(), counters)
	if err != nil {
		log.Printf("coord: %v (sweep %s runs without crash recovery)", err, id)
	}
	c.jr = jr
	c.mu.Lock()
	// The initial snapshot atomically discards whatever journal a
	// previous process left for this directory: a fresh coordinator
	// owns the lease table outright, stale leases are obsolete by
	// construction (its partition excludes settled cells). If the
	// reset does not land, appending deltas onto the old journal would
	// replay against a different partition — journal-less beats wrong.
	if !c.jr.rewrite(c.snapshotEntryLocked()) {
		c.jr.close()
	}
	if len(c.shards) == 0 {
		c.finishLocked(sweep.StateDone, "")
	}
	c.notifyLocked()
	c.mu.Unlock()
	return c
}

// recoverCoordinator rebuilds an in-flight coordinator from the
// journal co-located with the store. It returns (nil, nil) when there
// is nothing to recover: no journal, a snapshot-less journal, or a
// journaled sweep that already reached a terminal state. Cell
// outcomes are seeded from the store — a cell with a stored success
// is never re-issued, and cells the crashed coordinator had counted
// failed stay counted (recovery reconstructs the in-flight
// coordinator, not a fresh resume; failed cells in open shards still
// re-lease, because Lease filters on "has no stored success"). The
// shard partition, lease holders and lease counts come from the
// journal, so surviving workers keep their lease ids. Leases whose
// TTL lapsed during the outage stay on the table as-is: the
// reclaim-on-demand rule in Lease makes them immediately re-leasable,
// while a holder that heartbeats first revives.
func recoverCoordinator(spec sweep.Spec, cells []sweep.Cell, store *sweep.Store, cfg Config, reg *workerRegistry, counters *metrics.CoordCounters, onProgress func(sweep.Progress)) (*Coordinator, error) {
	if counters == nil {
		counters = &metrics.CoordCounters{}
	}
	if reg == nil {
		reg = newWorkerRegistry(cfg.ttl())
	}
	path := store.CoordJournalPath()
	st, err := replayJournal(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("coord: replay %s: %w", path, err)
	}
	if st.corrupt > 0 {
		log.Printf("coord: %s: ignored %d corrupt journal line(s)", path, st.corrupt)
	}
	if st.sweepID == "" || st.finished {
		return nil, nil
	}
	counters.JournalReplayed.Add(uint64(st.entries))

	c := &Coordinator{
		id:         st.sweepID,
		spec:       spec,
		store:      store,
		ttl:        cfg.ttl(),
		maxLeases:  cfg.maxLeases(),
		counters:   counters,
		onProg:     onProgress,
		reg:        reg,
		cells:      make(map[string]cellOutcome, len(cells)),
		keyByIndex: make(map[int]string, len(cells)),
		reqByIndex: make(map[int][]string, len(cells)),
		prog:       sweep.Progress{State: sweep.StateRunning, Total: len(cells)},
		done:       make(chan struct{}),
	}
	completed := store.Completed()
	for _, cell := range cells {
		key := cell.Key()
		c.keyByIndex[cell.Index] = key
		c.reqByIndex[cell.Index] = cell.Requires
		if ipc, ok := completed[key]; ok {
			c.cells[key] = cellOK
			c.prog.Done++
			c.prog.Skipped++
			c.gm.Add(ipc)
			continue
		}
		c.cells[key] = cellPendingOutcome
	}
	for key := range store.FailedCells() {
		if state, known := c.cells[key]; known && state == cellPendingOutcome {
			c.cells[key] = cellFailed
			c.prog.Failed++
		}
	}

	now := time.Now()
	covered := map[int]bool{} // cell indexes the journaled shards carry
	for _, snap := range st.shards {
		state, ok := shardStateFromName(snap.State)
		if !ok {
			state = shardPending // unknown state: safe to re-lease
		}
		sh := &shard{id: len(c.shards), state: state, worker: snap.Worker, leases: snap.Leases, renews: snap.Renews}
		for _, idx := range snap.Indexes {
			if _, known := c.keyByIndex[idx]; known {
				sh.indexes = append(sh.indexes, idx)
				covered[idx] = true
			}
		}
		// Requires come from the re-expanded cells, not the journal (the
		// manifest pins the spec, so the cells are authoritative; the
		// journaled copy is for operators reading the file). Union over
		// the shard in case a corrupt journal mixed groups.
		sh.requires = unionRequires(c.reqByIndex, sh.indexes)
		if sh.state == shardDone && !c.shardSettledLocked(sh) {
			// The journal's retire outlived some of the shard's result
			// lines (a power failure can persist one unsynced file and
			// not the other). Trusting "done" would strand the lost
			// cells forever; demote the shard so they re-lease.
			log.Printf("coord: %s: journaled-done shard %d has unsettled cells; re-opening it", c.id, sh.id)
			sh.state = shardPending
			sh.worker = ""
		}
		if snap.Expires != nil {
			sh.expires = *snap.Expires
		}
		if sh.state == shardLeased && sh.expires.After(now) {
			counters.LeasesRecovered.Inc()
		}
		if sh.state == shardLeased && sh.worker != "" {
			// Seed the fleet registry from the journal: the holder was
			// alive moments before the crash, keeps its lease row, and
			// its affinity memory survives the hand-off.
			reg.noteLease(sh.worker, c.id, sh.id, requireSig(sh.requires), now)
		}
		c.shards = append(c.shards, sh)
	}
	// Safety net: incomplete cells no journaled shard covers (the
	// manifest pins the spec, so this should be impossible) get fresh
	// shards instead of being silently lost.
	var orphans []int
	for _, cell := range cells {
		if !covered[cell.Index] && c.cells[c.keyByIndex[cell.Index]] != cellOK {
			orphans = append(orphans, cell.Index)
		}
	}
	if len(orphans) > 0 {
		log.Printf("coord: %s: %d cell(s) missing from the journaled partition; re-sharding them", c.id, len(orphans))
		c.shards = appendShards(c.shards, orphans, c.reqByIndex, cfg.shardSize())
	}

	counters.SweepsRecovered.Inc()
	jr, jerr := openJournal(path, counters)
	if jerr != nil {
		log.Printf("coord: %v (recovered sweep %s runs without crash recovery)", jerr, c.id)
	}
	c.jr = jr
	c.mu.Lock()
	// Recovery is itself a compaction: the replayed history collapses
	// into one snapshot of the reconstructed table.
	c.compactJournalLocked()
	// The crash may have lost only the terminal line (every shard had
	// already retired, or only quarantined ones remained).
	c.maybeFinishLocked()
	c.notifyLocked()
	c.mu.Unlock()
	return c, nil
}

// unionRequires merges the required tags of the given cell indexes
// into one sorted, deduplicated set.
func unionRequires(reqByIndex map[int][]string, indexes []int) []string {
	var out []string
	seen := map[string]bool{}
	for _, idx := range indexes {
		for _, tag := range reqByIndex[idx] {
			if !seen[tag] {
				seen[tag] = true
				out = append(out, tag)
			}
		}
	}
	sort.Strings(out)
	return out
}

// ID returns the sweep run identifier the coordinator serves.
func (c *Coordinator) ID() string { return c.id }

// Done is closed when the sweep reaches a terminal state.
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Progress snapshots the sweep. Starved is computed fresh against the
// workers seen recently, so it decays as mismatched workers leave.
func (c *Coordinator) Progress() sweep.Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.prog
	p.GeoMeanIPC = c.gm.Mean()
	if !c.closed {
		p.Starved = c.starvedCellsLocked(time.Now())
	}
	return p
}

// Cancel terminates the sweep: pending shards are dropped and every
// subsequent lease, heartbeat or complete answers stale. Records
// merged so far stay in the store, so re-posting the spec resumes.
func (c *Coordinator) Cancel() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.finishLocked(sweep.StateCancelled, "")
		c.notifyLocked()
	}
}

// workerLiveFactor: a worker counts as live for starvation accounting
// while its last lease poll or heartbeat is within this many TTLs.
const workerLiveFactor = 2

// starvedCellsLocked counts unsettled cells of pending shards that no
// live worker can serve — the shard's required tags (or its size, for
// workers with a max-cells hint) rule everyone out. An unconstrained
// shard with no workers around at all is merely idle, not starved; a
// constrained shard with nobody matching is starved even then, because
// only a new, differently-equipped worker can ever unblock it.
//
// The common cases — an idle fleet, or a live worker whose size
// ceiling covers the whole shard (len(indexes) bounds what remains) —
// are decided without touching the shard's cells, so this costs
// O(shards × live workers) per call; only shards that might actually
// be starved pay a per-cell scan.
func (c *Coordinator) starvedCellsLocked(now time.Time) int {
	live := c.reg.liveCaps(now, time.Duration(workerLiveFactor)*c.ttl)
	starved := 0
	for _, sh := range c.shards {
		if sh.state != shardPending {
			continue
		}
		if len(sh.requires) == 0 && len(live) == 0 {
			continue // no fleet yet ≠ starved
		}
		fit := false
		for _, w := range live {
			if (w.maxCells == 0 || w.maxCells >= len(sh.indexes)) && w.fitsTags(sh.requires) {
				fit = true
				break
			}
		}
		if fit {
			continue
		}
		n := 0
		for _, idx := range sh.indexes {
			if c.cells[c.keyByIndex[idx]] != cellOK {
				n++
			}
		}
		if n == 0 {
			continue
		}
		satisfiable := false
		for _, w := range live {
			if w.fits(sh.requires, n) {
				satisfiable = true
				break
			}
		}
		if !satisfiable {
			starved += n
		}
	}
	return starved
}

// Lease hands the worker a pending shard it is capable of running,
// reclaiming expired leases first — expiry happens only here (on
// demand, when someone actually wants the work), so a lease past its
// TTL whose worker is merely slow survives until another worker asks.
// Shards whose required tags the worker does not advertise (or whose
// remaining cells exceed its max-cells hint) are skipped; they wait
// for a matching worker, counting toward the starvation metrics. The
// granted index set is filtered to cells without a stored success, so
// a re-lease after a partial stale upload re-runs only what is
// missing. ok is false when nothing this worker can serve is pending
// right now — the sweep is finished, every remaining shard is leased
// out, or the rest needs capabilities this worker lacks (in which
// case the denial counts toward the starvation metrics).
func (c *Coordinator) Lease(w WorkerID) (l Lease, ok bool) {
	l, ok, constrained := c.leaseScan(w)
	if !ok && constrained {
		c.noteStarved()
	}
	return l, ok
}

// requireSig is the canonical signature of a shard's requirement
// group — the same form appendShards groups by, reused as the
// affinity key for "same configs, different cells".
func requireSig(requires []string) string { return strings.Join(requires, ",") }

// leaseScan is Lease minus the starvation accounting: constrained
// reports that pending work exists which this worker cannot serve.
// The hub folds that flag across its coordinators, so a worker that
// this sweep starved but another sweep served in the same poll is not
// miscounted.
//
// Among the shards the worker could take, placement prefers the one
// its engine cache is warmest for: a shard this worker held before
// beats a shard from a requirement group it has served, which beats a
// stranger. With no history every score is zero and the scan degrades
// to first-fit, so a fresh fleet behaves exactly as before.
func (c *Coordinator) leaseScan(w WorkerID) (l Lease, ok, constrained bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return Lease{}, false, false
	}
	now := time.Now()
	cap := c.reg.observe(w, now)
	c.expireLocked(now)
	var (
		best        *shard
		bestIndexes []int
		bestScore   int
	)
	for _, sh := range c.shards {
		if sh.state != shardPending {
			continue
		}
		indexes := []int{}
		for _, idx := range sh.indexes {
			if c.cells[c.keyByIndex[idx]] != cellOK {
				indexes = append(indexes, idx)
			}
		}
		if len(indexes) == 0 {
			// Stale uploads filled the shard in while it sat pending.
			c.retireShardLocked(sh)
			if c.maybeFinishLocked() {
				c.notifyLocked()
				return Lease{}, false, false
			}
			continue
		}
		if !cap.fits(sh.requires, len(indexes)) {
			constrained = true
			continue
		}
		if sh.leases >= c.maxLeases {
			if best != nil {
				// First-fit would have granted the earlier shard without
				// ever reaching this one; leave it for a poll that must
				// face it head-on.
				continue
			}
			// Every holder of this shard vanished or failed to upload.
			// Re-leasing it forever would livelock the sweep as
			// "running"; fail terminally instead so the manager, the
			// workers (idle-exit) and CI all see a verdict. (Operators
			// can quarantine a known-poisonous shard before it gets
			// here, letting the rest of the sweep finish.)
			c.finishLocked(sweep.StateFailed, fmt.Sprintf(
				"coord: shard %d not completed after %d leases; giving up", sh.id, sh.leases))
			c.notifyLocked()
			return Lease{}, false, false
		}
		score := c.reg.affinityScore(w.Name, c.id, sh.id, requireSig(sh.requires))
		if best == nil || score > bestScore {
			best, bestIndexes, bestScore = sh, indexes, score
			if bestScore >= affinityExact {
				break // nothing scores higher; stop scanning
			}
		}
	}
	if best == nil {
		return Lease{}, false, constrained
	}
	sh := best
	sh.state = shardLeased
	sh.worker = w.Name
	sh.expires = now.Add(c.ttl)
	sh.granted = now
	sh.leases++
	sh.renews = 0
	c.counters.LeasesGranted.Inc()
	if sh.leases > 1 {
		c.counters.ShardsReassigned.Inc()
	}
	if bestScore > affinityNone {
		c.counters.LeasesAffine.Inc()
	}
	c.reg.noteLease(w.Name, c.id, sh.id, requireSig(sh.requires), now)
	exp := sh.expires
	c.journalLocked(journalEntry{T: entryLease, Shard: sh.id, Worker: w.Name, Expires: &exp, Leases: sh.leases})
	return Lease{
		Sweep:   c.id,
		Shard:   sh.id,
		Indexes: bestIndexes,
		Spec:    c.spec,
		TTL:     c.ttl,
	}, true, false
}

// noteStarved counts one lease poll denied purely by capability
// constraints and pushes the refreshed starvation figure to the
// observer, so /sweeps shows "starved" instead of silently hanging.
func (c *Coordinator) noteStarved() {
	c.counters.LeasesStarved.Inc()
	c.refreshStarved()
}

// refreshStarved re-delivers progress (with a fresh starved count) to
// the observer without touching any counter.
func (c *Coordinator) refreshStarved() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		c.notifyLocked()
	}
}

// Heartbeat renews the worker's lease on a shard. A false return means
// the lease is stale — the shard was reclaimed, re-assigned,
// quarantined, or the sweep is over — and the worker should abandon
// the shard. Deliberately no expiry sweep here: a heartbeat that was
// merely delayed (slow network, or queued behind a long merge on the
// coordinator mutex) revives a past-TTL lease as long as nothing has
// reclaimed the shard yet, instead of killing a healthy worker.
func (c *Coordinator) Heartbeat(w WorkerID, shardID int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || shardID < 0 || shardID >= len(c.shards) {
		c.counters.StaleAcks.Inc()
		return false
	}
	now := time.Now()
	c.reg.observe(w, now)
	sh := c.shards[shardID]
	if sh.state != shardLeased || sh.worker != w.Name {
		c.counters.StaleAcks.Inc()
		return false
	}
	sh.expires = now.Add(c.ttl)
	sh.renews++
	exp := sh.expires
	c.journalLocked(journalEntry{T: entryRenew, Shard: sh.id, Expires: &exp})
	return true
}

// Complete merges a worker's shard records into the canonical store
// and — when the worker still holds the shard's lease — marks the
// shard done. Records for cells that already have a stored success are
// dropped (dedup, last-ok-wins), so a stale complete — the shard
// expired and was re-run elsewhere — cannot duplicate cells; its
// records still merge, but only the current lessee's ack (or every
// cell of the shard reaching a stored success) may retire the shard,
// so a mis-addressed or stale upload can never finish a shard whose
// cells were not run. When the last shard retires, Done closes.
func (c *Coordinator) Complete(worker string, shardID int, recs []sweep.CellRecord) (merged, skipped int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || shardID < 0 || shardID >= len(c.shards) {
		c.counters.StaleAcks.Inc()
		return 0, len(recs), ErrStale
	}
	// No expiry sweep here (mirroring Heartbeat): a holder past its TTL
	// whose shard nothing reclaimed yet still gets to retire it.
	sh := c.shards[shardID]
	holder := sh.state == shardLeased && sh.worker == worker
	if !holder {
		// The lease moved on (expired, re-assigned, or already acked).
		// The work is real, though: merge it, count the staleness.
		c.counters.StaleAcks.Inc()
	}
	merged, skipped, err = c.mergeLocked(recs)
	if err != nil {
		c.finishLocked(sweep.StateFailed, err.Error())
		c.notifyLocked()
		return merged, skipped, err
	}
	if holder && c.shardSettledLocked(sh) {
		// Retire only when every cell of the shard has an outcome: an
		// ack that skipped cells (a buggy worker) must not lose them —
		// the shard stays leased, expires, and the missing cells
		// re-assign.
		c.retireShardLocked(sh)
	}
	c.promoteShardsLocked()
	c.maybeFinishLocked()
	c.notifyLocked()
	return merged, skipped, nil
}

// shardSettledLocked reports whether every cell of the shard has a
// recorded outcome (ok or failed).
func (c *Coordinator) shardSettledLocked(sh *shard) bool {
	for _, idx := range sh.indexes {
		if c.cells[c.keyByIndex[idx]] == cellPendingOutcome {
			return false
		}
	}
	return true
}

// retireShardLocked marks one shard done.
func (c *Coordinator) retireShardLocked(sh *shard) {
	if sh.state != shardDone {
		c.reg.dropLease(sh.worker, c.id, sh.id)
		sh.state = shardDone
		sh.worker = ""
		c.counters.ShardsCompleted.Inc()
		c.journalLocked(journalEntry{T: entryRetire, Shard: sh.id})
	}
}

// promoteShardsLocked retires any shard whose every cell already has a
// stored success — a stale upload can land the last missing cells of a
// shard that meanwhile expired or was re-leased, and re-running such a
// shard would be pure waste (its records would all dedup away).
// Quarantined shards promote too: a quarantine parks *unrun* work, and
// a shard whose cells all carry stored successes has nothing left to
// protect anyone from.
func (c *Coordinator) promoteShardsLocked() {
	for _, sh := range c.shards {
		if sh.state == shardDone {
			continue
		}
		allOK := true
		for _, idx := range sh.indexes {
			if c.cells[c.keyByIndex[idx]] != cellOK {
				allOK = false
				break
			}
		}
		if allOK {
			c.retireShardLocked(sh)
		}
	}
}

// mergeLocked appends records into the store and folds each cell's
// transition into the progress counts: first failure counts the cell
// failed, the first success counts it done (and un-counts a prior
// failure — last ok wins). Records that cannot change a cell's state —
// duplicate successes, and repeat failures for an already-failed cell
// (a retried upload whose first attempt's response was lost) — are
// dropped before touching the store, so completes are idempotent and
// the NDJSON log gains no duplicate lines. Unknown keys merge into the
// store but not the counts, so a foreign record cannot inflate Done
// past Total.
func (c *Coordinator) mergeLocked(recs []sweep.CellRecord) (merged, skipped int, err error) {
	fresh := recs[:0:0]
	for _, rec := range recs {
		state, known := c.cells[rec.Key]
		if known && (state == cellOK || (state == cellFailed && rec.Status == sweep.StatusFailed)) {
			skipped++
			continue
		}
		fresh = append(fresh, rec)
	}
	merged, dup, err := c.store.Merge(fresh)
	skipped += dup
	c.counters.RecordsMerged.Add(uint64(merged))
	c.counters.RecordsDeduped.Add(uint64(skipped))
	if err != nil {
		return merged, skipped, err
	}
	for _, rec := range fresh {
		state, known := c.cells[rec.Key]
		if !known || state == cellOK {
			continue
		}
		switch rec.Status {
		case sweep.StatusOK:
			if state == cellFailed {
				c.prog.Failed--
			}
			c.cells[rec.Key] = cellOK
			c.prog.Done++
			c.prog.Executed++
			c.gm.Add(rec.IPC)
		case sweep.StatusFailed:
			if state == cellPendingOutcome {
				c.cells[rec.Key] = cellFailed
				c.prog.Failed++
				c.prog.Executed++
			}
		}
	}
	return merged, skipped, nil
}

// Snapshot is the JSON view of a coordinator for /coord/status. The
// shard-table fields carry a "shards_" prefix so they cannot shadow
// the embedded Progress's cell-level done/total in the JSON.
type Snapshot struct {
	Sweep             string `json:"sweep"`
	Name              string `json:"name"`
	Shards            int    `json:"shards"`
	PendingShards     int    `json:"shards_pending"`
	LeasedShards      int    `json:"shards_leased"`
	DoneShards        int    `json:"shards_done"`
	QuarantinedShards int    `json:"shards_quarantined,omitempty"`
	sweep.Progress
}

// Snapshot summarises the shard table and progress. It is a pure
// read: a past-TTL lease still shows as leased until a Lease call
// reclaims it.
func (c *Coordinator) Snapshot() Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Snapshot{Sweep: c.id, Name: c.spec.Name, Shards: len(c.shards)}
	for _, sh := range c.shards {
		switch sh.state {
		case shardPending:
			s.PendingShards++
		case shardLeased:
			s.LeasedShards++
		case shardDone:
			s.DoneShards++
		case shardQuarantined:
			s.QuarantinedShards++
		}
	}
	s.Progress = c.prog
	s.Progress.GeoMeanIPC = c.gm.Mean()
	if !c.closed {
		s.Progress.Starved = c.starvedCellsLocked(time.Now())
	}
	return s
}

// ShardLease is one row of the admin lease table: where a shard is in
// its lifecycle, who holds it, for how long, and what it demands.
type ShardLease struct {
	Shard      int      `json:"shard"`
	State      string   `json:"state"`
	Cells      int      `json:"cells"`
	CellsLeft  int      `json:"cells_left"`
	Requires   []string `json:"requires,omitempty"`
	Worker     string   `json:"worker,omitempty"`
	WorkerTags []string `json:"worker_tags,omitempty"`
	Leases     int      `json:"leases"`
	Renews     int      `json:"renews,omitempty"`
	// AgeMS is how long the current lease has been held.
	AgeMS int64 `json:"lease_age_ms,omitempty"`
	// ExpiresInMS counts down to the lease's TTL; negative means it
	// lapsed and awaits reclaim-on-demand.
	ExpiresInMS int64 `json:"expires_in_ms,omitempty"`
}

// WorkerSeen is one worker the fleet registry has heard from: its
// advertised capabilities, how long ago it last polled or heartbeat,
// and the shard leases it holds right now across every live sweep.
type WorkerSeen struct {
	Name       string           `json:"name"`
	Tags       []string         `json:"tags,omitempty"`
	MaxCells   int              `json:"max_cells,omitempty"`
	LastSeenMS int64            `json:"last_seen_ms"`
	Leases     []WorkerLeaseRef `json:"leases,omitempty"`
}

// LeaseTable is one sweep's full admin view: every shard row plus the
// workers recently seen, for GET /coord/admin/leases.
type LeaseTable struct {
	Sweep   string       `json:"sweep"`
	Name    string       `json:"name"`
	Starved int          `json:"starved,omitempty"`
	Shards  []ShardLease `json:"shards"`
	Workers []WorkerSeen `json:"workers,omitempty"`
}

// LeaseTable snapshots the live lease table for operators.
func (c *Coordinator) LeaseTable() LeaseTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	t := LeaseTable{Sweep: c.id, Name: c.spec.Name, Starved: c.starvedCellsLocked(now)}
	for _, sh := range c.shards {
		row := ShardLease{
			Shard:    sh.id,
			State:    sh.state.name(),
			Cells:    len(sh.indexes),
			Requires: sh.requires,
			Leases:   sh.leases,
			Renews:   sh.renews,
		}
		for _, idx := range sh.indexes {
			if c.cells[c.keyByIndex[idx]] != cellOK {
				row.CellsLeft++
			}
		}
		if sh.state == shardLeased {
			row.Worker = sh.worker
			if !sh.granted.IsZero() {
				row.AgeMS = now.Sub(sh.granted).Milliseconds()
			}
			row.ExpiresInMS = sh.expires.Sub(now).Milliseconds()
			if cap, ok := c.reg.capOf(sh.worker); ok {
				row.WorkerTags = cap.tagList
			}
		}
		t.Shards = append(t.Shards, row)
	}
	// Workers come from the fleet registry the hub shares across
	// sweeps — the table shows the whole fleet an operator could
	// route to, idle workers included.
	t.Workers = c.reg.snapshot(now)
	return t
}

// expireLocked returns shards whose lease TTL lapsed to the pending
// pool. It runs only from Lease — reclaim on demand — so a slow but
// alive holder keeps its lease (and can heartbeat it back to life, or
// retire it) until a competing worker actually needs the work.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, sh := range c.shards {
		if sh.state == shardLeased && now.After(sh.expires) {
			c.reg.dropLease(sh.worker, c.id, sh.id)
			sh.state = shardPending
			sh.worker = ""
			c.counters.LeasesExpired.Inc()
			c.journalLocked(journalEntry{T: entryExpire, Shard: sh.id})
		}
	}
}

// maybeFinishLocked moves the sweep to its terminal state once no
// shard is pending or leased: all-done finishes "done"; done plus at
// least one quarantined shard finishes "done-with-quarantined" — the
// operator parked those cells deliberately, and re-POSTing the spec
// later starts a fresh run over exactly them. Reports whether the
// sweep is now (or already was) finished.
func (c *Coordinator) maybeFinishLocked() bool {
	if c.closed {
		return true
	}
	quarantined := 0
	for _, sh := range c.shards {
		switch sh.state {
		case shardPending, shardLeased:
			return false
		case shardQuarantined:
			quarantined++
		}
	}
	if quarantined > 0 {
		c.finishLocked(sweep.StateDoneQuarantined, "")
	} else {
		c.finishLocked(sweep.StateDone, "")
	}
	return true
}

// shardForAdminLocked resolves one shard for an admin action against a
// live sweep.
func (c *Coordinator) shardForAdminLocked(shardID int) (*shard, error) {
	if c.closed {
		return nil, fmt.Errorf("coord: sweep %s already finished", c.id)
	}
	if shardID < 0 || shardID >= len(c.shards) {
		return nil, fmt.Errorf("coord: sweep %s has no shard %d", c.id, shardID)
	}
	return c.shards[shardID], nil
}

// AdminExpire force-expires a shard's lease: the holder's next
// heartbeat answers stale and the shard re-assigns on the next lease
// poll — the operator's lever against a wedged worker that keeps
// heartbeating without progressing. The lease budget resets: the cap
// exists to fail *silent* livelock loudly, and an explicit operator
// release is informed consent to retry — without the reset, expiring
// a shard already at the cap would terminally fail the sweep on the
// very next poll. The whole mutation persists as a journal snapshot
// (admin actions are rare; the synced rewrite also carries the reset,
// which a delta entry could not).
func (c *Coordinator) AdminExpire(shardID int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, err := c.shardForAdminLocked(shardID)
	if err != nil {
		return err
	}
	if sh.state != shardLeased {
		return fmt.Errorf("coord: shard %d is %s, not leased", shardID, sh.state.name())
	}
	log.Printf("coord: %s: admin force-expired shard %d (held by %s, %d renew(s))", c.id, sh.id, sh.worker, sh.renews)
	c.reg.dropLease(sh.worker, c.id, sh.id)
	sh.state = shardPending
	sh.worker = ""
	sh.leases = 0
	c.counters.LeasesExpired.Inc()
	c.counters.AdminExpired.Inc()
	c.compactJournalLocked()
	c.notifyLocked()
	return nil
}

// Quarantine parks a shard: it is never leased again, its holder (if
// any) goes stale, and once every other shard retires the sweep
// finishes "done-with-quarantined" instead of hanging or burning
// leases on a poisonous shard. Quarantining an already-quarantined
// shard is a no-op; a done shard cannot be quarantined. The transition
// is journaled, so a quarantine survives a server restart.
func (c *Coordinator) Quarantine(shardID int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, err := c.shardForAdminLocked(shardID)
	if err != nil {
		return err
	}
	switch sh.state {
	case shardDone:
		return fmt.Errorf("coord: shard %d is already done", shardID)
	case shardQuarantined:
		return nil
	}
	log.Printf("coord: %s: admin quarantined shard %d (%d cell(s))", c.id, sh.id, len(sh.indexes))
	c.reg.dropLease(sh.worker, c.id, sh.id)
	sh.state = shardQuarantined
	sh.worker = ""
	c.counters.ShardsQuarantined.Inc()
	// A snapshot rewrite, not a delta: admin actions are rare and the
	// synced rewrite makes the quarantine durable even against a power
	// cut, not just a kill -9.
	c.compactJournalLocked()
	c.maybeFinishLocked()
	c.notifyLocked()
	return nil
}

// Unquarantine returns a quarantined shard to the pending pool, where
// the next capable worker leases it. Only live sweeps can release a
// shard — once the sweep finished done-with-quarantined, the parked
// cells re-run by re-POSTing the spec.
func (c *Coordinator) Unquarantine(shardID int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, err := c.shardForAdminLocked(shardID)
	if err != nil {
		return err
	}
	if sh.state != shardQuarantined {
		return fmt.Errorf("coord: shard %d is %s, not quarantined", shardID, sh.state.name())
	}
	log.Printf("coord: %s: admin released shard %d from quarantine", c.id, sh.id)
	sh.state = shardPending
	// Fresh lease budget, same reasoning as AdminExpire: a shard was
	// often parked precisely because it burned leases, and releasing
	// it is an explicit request to try again.
	sh.leases = 0
	c.counters.ShardsUnquarantined.Inc()
	c.compactJournalLocked()
	c.notifyLocked()
	return nil
}

// finishLocked moves the sweep to a terminal state exactly once. The
// journal is rewritten to its terminal form — one snapshot plus the
// finish line — and closed: restarts skip finished sweeps, and the
// file stays as a compact record of how the sweep ended.
func (c *Coordinator) finishLocked(state sweep.State, errMsg string) {
	if c.closed {
		return
	}
	c.closed = true
	c.prog.State = state
	if errMsg != "" {
		c.prog.Error = errMsg
	}
	c.reg.dropSweep(c.id)
	c.jr.rewrite(c.snapshotEntryLocked(), journalEntry{T: entryFinish, State: string(state), Error: errMsg})
	c.jr.close()
	close(c.done)
}

// journalCompactMin floors the delta entries accumulated before a
// compaction rewrite (a var so tests can trigger compaction cheaply).
var journalCompactMin = 256

// journalLocked appends one delta entry and, when the delta history
// dwarfs the table it describes (long sweeps accumulate a renew line
// per heartbeat), compacts the journal back to a single snapshot.
func (c *Coordinator) journalLocked(e journalEntry) {
	c.jr.append(e)
	if !c.jr.disabled() && c.jr.pending >= journalCompactMin && c.jr.pending >= 8*len(c.shards) {
		c.compactJournalLocked()
	}
}

// compactJournalLocked rewrites the journal as one snapshot of the
// current table, dropping the settled churn that led here — the file
// stays proportional to the shard count, not the sweep's lifetime.
func (c *Coordinator) compactJournalLocked() {
	if c.jr.disabled() {
		return
	}
	c.jr.rewrite(c.snapshotEntryLocked())
	c.counters.JournalCompactions.Inc()
}

// snapshotEntryLocked captures the full shard table as one journal
// entry — the fixed point a replay starts from.
func (c *Coordinator) snapshotEntryLocked() journalEntry {
	e := journalEntry{T: entrySnapshot, Sweep: c.id, Shards: make([]shardSnap, len(c.shards))}
	for i, sh := range c.shards {
		snap := shardSnap{ID: sh.id, Indexes: sh.indexes, Requires: sh.requires, State: sh.state.name(), Worker: sh.worker, Leases: sh.leases, Renews: sh.renews}
		if sh.state == shardLeased {
			exp := sh.expires
			snap.Expires = &exp
		}
		e.Shards[i] = snap
	}
	return e
}

// notifyLocked delivers the current progress to the observer while
// holding the lock, so deliveries are ordered (the manager differences
// successive snapshots).
func (c *Coordinator) notifyLocked() {
	if c.onProg == nil {
		return
	}
	p := c.prog
	p.GeoMeanIPC = c.gm.Mean()
	if !c.closed {
		p.Starved = c.starvedCellsLocked(time.Now())
	}
	c.onProg(p)
}

// Lease is one granted shard: the sweep it belongs to, the explicit
// cell-index set to run, the spec to expand them from, and how long
// the worker has before it must heartbeat.
type Lease struct {
	Sweep   string        `json:"sweep"`
	Shard   int           `json:"shard"`
	Indexes []int         `json:"indexes"`
	Spec    sweep.Spec    `json:"spec"`
	TTL     time.Duration `json:"-"`
}
