package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/service"
)

// State is a sweep run's lifecycle phase.
type State string

// Run states.
const (
	StateRunning   State = "running"
	StateDone      State = "done"
	StateCancelled State = "cancelled"
	StateFailed    State = "failed" // store I/O failure, not cell failure
)

// Progress is a point-in-time view of a sweep run. Done counts cells
// with a stored success (including Skipped ones resumed from disk);
// Executed counts cells this process actually pushed through the
// engine.
type Progress struct {
	State    State `json:"state"`
	Total    int   `json:"total"`
	Done     int   `json:"done"`
	Failed   int   `json:"failed"`
	Skipped  int   `json:"skipped"`
	Executed int   `json:"executed"`
	// GeoMeanIPC aggregates the raw IPC of every successful cell so
	// far (resumed cells included) — the sweep-wide "geomean so far".
	GeoMeanIPC float64 `json:"geomean_ipc"`
	Error      string  `json:"error,omitempty"`
}

// Runner executes a sweep's cells through a service engine, appending
// every outcome to the sink.
type Runner struct {
	Engine *service.Engine
	// Store receives every cell outcome (a *Store, or a Sink that wraps
	// one).
	Store Sink
	// Parallelism bounds concurrently submitted cells (0 = twice
	// GOMAXPROCS; the engine's worker pool bounds actual simulation
	// concurrency, extra submissions just queue on its slots).
	Parallelism int
	// Indexes restricts the runner to the cells whose Index appears in
	// the set — the explicit form of a shard, as computed by
	// ShardIndexes. Nil means every cell.
	// Every listed index must name a cell, so a shard cut against a
	// different expansion fails loudly instead of silently under-running.
	Indexes []int
	// OnProgress, when set, observes every progress change. It is
	// invoked synchronously under the runner's internal lock so
	// deliveries arrive in order (observers can difference successive
	// snapshots); keep it fast and never call back into the runner.
	OnProgress func(Progress)
}

// ShardIndexes returns the explicit index set of shard idx of n over
// total cells — round-robin, the same assignment the old
// Index%n == idx rule produced. n <= 1 returns nil (every cell); a
// shard with no cells returns an empty non-nil slice, which the Runner
// distinguishes from nil (an out-of-work shard runs nothing, not
// everything).
func ShardIndexes(total, idx, n int) []int {
	if n <= 1 {
		return nil
	}
	out := []int{}
	for i := idx; i < total; i += n {
		out = append(out, i)
	}
	return out
}

// Run executes cells until completion or ctx cancellation, returning
// the final progress. Cell failures are recorded and counted, not
// fatal; only store I/O errors abort the sweep.
func (r *Runner) Run(ctx context.Context, cells []Cell) (Progress, error) {
	par := r.Parallelism
	if par <= 0 {
		par = 2 * runtime.GOMAXPROCS(0)
	}
	mine := cells
	if r.Indexes != nil {
		want := make(map[int]bool, len(r.Indexes))
		for _, i := range r.Indexes {
			want[i] = true
		}
		mine = nil
		for _, c := range cells {
			if want[c.Index] {
				mine = append(mine, c)
				delete(want, c.Index)
			}
		}
		if len(want) > 0 {
			return Progress{State: StateFailed}, fmt.Errorf("sweep: %d shard index(es) name no cell (e.g. %d of %d cells) — shard cut against a different expansion?",
				len(want), anyKey(want), len(cells))
		}
	}

	var (
		mu   sync.Mutex
		prog = Progress{State: StateRunning, Total: len(mine)}
		gm   metrics.RunningGeoMean
	)
	// notify delivers a snapshot while holding mu, so observers see
	// monotonically advancing progress (no reordered deliveries).
	notify := func() {
		if r.OnProgress == nil {
			return
		}
		mu.Lock()
		snap := prog
		snap.GeoMeanIPC = gm.Mean()
		r.OnProgress(snap)
		mu.Unlock()
	}

	// Resume: cells already completed on disk are skipped, their IPCs
	// seeding the running geomean.
	completed := r.Store.Completed()
	var todo []Cell
	for _, c := range mine {
		if ipc, ok := completed[c.Key()]; ok {
			prog.Done++
			prog.Skipped++
			gm.Add(ipc)
			continue
		}
		todo = append(todo, c)
	}
	notify()

	var (
		wg       sync.WaitGroup
		sem      = make(chan struct{}, par)
		storeErr error
	)
loop:
	for _, c := range todo {
		// Acquire the submission slot and the cancellation signal
		// together, so a cancel arriving while blocked on a full
		// semaphore does not launch one more cell.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			break loop
		}
		// Check for a failed append only with the slot held: the cell
		// whose append failed records the error before it frees its
		// slot, so a check made before the wait would launch one more.
		mu.Lock()
		broken := storeErr != nil
		mu.Unlock()
		if broken || ctx.Err() != nil {
			<-sem
			break
		}
		wg.Add(1)
		go func(c Cell) {
			defer wg.Done()
			defer func() { <-sem }()
			rec := r.runCell(c)
			err := r.Store.Append(rec)
			mu.Lock()
			prog.Executed++
			if err != nil {
				if storeErr == nil {
					storeErr = err
				}
			} else if rec.Status == StatusOK {
				prog.Done++
				gm.Add(rec.IPC)
			} else {
				prog.Failed++
			}
			mu.Unlock()
			notify()
		}(c)
	}
	wg.Wait()

	mu.Lock()
	switch {
	case storeErr != nil:
		prog.State = StateFailed
		prog.Error = storeErr.Error()
	case ctx.Err() != nil && prog.Done+prog.Failed < prog.Total:
		prog.State = StateCancelled
	default:
		prog.State = StateDone
	}
	prog.GeoMeanIPC = gm.Mean()
	final := prog
	err := storeErr
	mu.Unlock()
	if r.OnProgress != nil {
		r.OnProgress(final)
	}
	return final, err
}

// anyKey returns an arbitrary key of a non-empty set (for error text).
func anyKey(m map[int]bool) int {
	for k := range m {
		return k
	}
	return -1
}

// runCell executes one cell through the engine and shapes the record.
func (r *Runner) runCell(c Cell) CellRecord {
	rec := CellRecord{
		Key:    c.Key(),
		Index:  c.Index,
		Bench:  c.Bench,
		Sched:  c.Sched,
		Config: c.Config,
	}
	start := time.Now()
	payload, source, err := r.Engine.Run(c.Spec)
	rec.Elapsed = time.Since(start).Milliseconds()
	if err != nil {
		rec.Status = StatusFailed
		rec.Error = err.Error()
		return rec
	}
	rec.Status = StatusOK
	rec.Source = string(source)
	rec.Result = payload
	var cell harness.CellResult
	if json.Unmarshal(payload, &cell) == nil {
		rec.IPC = cell.IPC
	}
	return rec
}
