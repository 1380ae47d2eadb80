package coord

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

// WorkerConfig shapes one worker loop.
type WorkerConfig struct {
	// URL is the coordinator base URL: one absolute http(s) URL with
	// a host, such as http://host:port.
	URL string
	// Name identifies the worker in leases (default hostname-pid).
	Name string
	// Tags advertises this worker's capabilities ("bigmem", "gpu");
	// the coordinator routes shards whose spec requires tags only to
	// workers advertising all of them.
	Tags []string
	// MaxCells caps how many cells this worker accepts per lease
	// (0 = unlimited) — the resource hint of a small host.
	MaxCells int
	// Engine executes the leased cells (required).
	Engine *service.Engine
	// Parallelism bounds concurrently submitted cells per shard
	// (0 = the runner default).
	Parallelism int
	// Poll is the sleep between lease attempts when no shard is
	// available (0 = 500ms).
	Poll time.Duration
	// IdleExit, when positive, makes the worker exit cleanly after the
	// coordinator has reported — for this long — no live sweeps,
	// nothing this worker's capabilities can serve ("starved"), or
	// been unreachable. Zero polls forever — the daemon mode.
	IdleExit time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Logf receives progress lines (default log-less).
	Logf func(format string, args ...any)
}

func (c WorkerConfig) name() string {
	if c.Name != "" {
		return c.Name
	}
	host, err := os.Hostname()
	if err != nil {
		host = "worker"
	}
	return fmt.Sprintf("%s-%d", host, os.Getpid())
}

// poll returns the lease poll interval with ±25% jitter. Without it a
// fleet of workers released by the same event — an idle coordinator
// receiving a sweep, a server restart — knocks on /coord/lease in
// lockstep forever; the jitter spreads each retry wave out.
func (c WorkerConfig) poll() time.Duration {
	d := c.Poll
	if d <= 0 {
		d = 500 * time.Millisecond
	}
	return d - d/4 + time.Duration(rand.Int64N(int64(d)/2+1))
}

func (c WorkerConfig) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (c WorkerConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// RunWorker loops leasing shards from the coordinator and executing
// them through the engine until ctx is cancelled or — with IdleExit
// set — the coordinator stays idle long enough. Each leased shard runs
// through the ordinary sweep.Runner against an in-memory sink, with a
// background heartbeat keeping the lease alive; the collected records
// upload via /coord/complete. A shard whose heartbeat goes stale is
// abandoned mid-run: the coordinator has already re-assigned it.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Engine == nil {
		return errors.New("coord: worker needs an engine")
	}
	tags, err := sweep.NormalizeTags(cfg.Tags)
	if err != nil {
		return err
	}
	base, err := coordinatorBase(cfg.URL)
	if err != nil {
		return err
	}
	w := &worker{
		cfg:  cfg,
		name: cfg.name(),
		tags: tags,
		base: base,
	}
	var idleSince time.Time
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		resp, err := w.lease(ctx)
		idle := false
		sleep := cfg.poll()
		// The coordinator hints how soon polling again is useful
		// (longer when idle than when shards are merely all leased out);
		// honor it when it is the more patient of the two.
		if hint := time.Duration(resp.RetryMS) * time.Millisecond; hint > sleep {
			sleep = hint
		}
		switch {
		case err != nil:
			// Coordinator unreachable: with IdleExit this eventually
			// stops the worker, without it we keep knocking.
			w.cfg.logf("lease: %v", err)
			idle = true
		case resp.Status == statusShard:
			l, lerr := leaseFromResponse(resp)
			if lerr != nil {
				w.cfg.logf("lease: %v", lerr)
				idle = true
				break
			}
			idleSince = time.Time{}
			if w.runShard(ctx, l) {
				continue // immediately ask for the next shard
			}
			// The shard was abandoned (stale lease, bad spec, failed
			// upload). Fall through to the poll sleep: leasing again at
			// HTTP speed would just park every pending shard for a TTL.
		case resp.Status == statusIdle || resp.Status == statusStarved:
			// Starved means pending work exists that this worker can
			// never serve with its tags/size hints: for -idle-exit
			// purposes that is idleness — only a differently-equipped
			// worker can unblock it — though polling continues in case
			// unconstrained work appears.
			idle = true
		}
		if idle && cfg.IdleExit > 0 {
			if idleSince.IsZero() {
				idleSince = time.Now()
			} else if time.Since(idleSince) >= cfg.IdleExit {
				w.cfg.logf("idle for %s, exiting", cfg.IdleExit)
				return nil
			}
		}
		if !idle {
			idleSince = time.Time{}
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(sleep):
		}
	}
}

// coordinatorBase checks that raw is one absolute http(s) URL with a
// host and returns it without a trailing slash. Anything else — a bare
// host:port, an empty string, a comma-separated list — would fail on
// every poll, and IdleExit would then mistake the failures for an idle
// coordinator and exit cleanly.
func coordinatorBase(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" || strings.Contains(raw, ",") {
		return "", fmt.Errorf("coord: worker URL %q is not one http(s)://host[:port] URL", raw)
	}
	return strings.TrimRight(raw, "/"), nil
}

type worker struct {
	cfg  WorkerConfig
	name string
	tags []string
	base string // coordinator URL, no trailing slash
}

// runShard executes one leased shard and uploads its records,
// reporting whether the shard was acked (false = abandoned: the lease
// expires and the shard re-assigns).
func (w *worker) runShard(ctx context.Context, l Lease) bool {
	cells, err := l.Spec.Expand()
	if err != nil {
		// Version skew: this worker cannot expand the coordinator's
		// spec. Abandon the lease (it expires and re-assigns) rather
		// than acking an empty shard and losing its cells.
		w.cfg.logf("shard %s/%d: cannot expand spec: %v", l.Sweep, l.Shard, err)
		return false
	}
	w.cfg.logf("leased shard %s/%d (%d cells)", l.Sweep, l.Shard, len(l.Indexes))

	// Heartbeat until the shard finishes; a stale answer cancels the
	// shard's context so the runner stops submitting cells.
	shardCtx, cancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	stale := false
	go func() {
		defer close(hbDone)
		interval := l.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-time.After(interval):
			}
			alive, err := w.heartbeat(shardCtx, l)
			if err != nil {
				// Transport trouble is transient: retry on the next tick.
				w.cfg.logf("heartbeat %s/%d: %v", l.Sweep, l.Shard, err)
				continue
			}
			if !alive {
				stale = true
				cancel()
				return
			}
		}
	}()

	mem := &sweep.MemStore{}
	runner := &sweep.Runner{
		Engine:      w.cfg.Engine,
		Store:       mem,
		Parallelism: w.cfg.Parallelism,
		Indexes:     l.Indexes,
	}
	final, runErr := runner.Run(shardCtx, cells)
	cancel()
	<-hbDone
	if runErr != nil {
		w.cfg.logf("shard %s/%d: %v", l.Sweep, l.Shard, runErr)
		return false
	}
	if ctx.Err() != nil {
		// Shutting down; the records die with the process.
		w.cfg.logf("shard %s/%d abandoned (shutdown)", l.Sweep, l.Shard)
		return false
	}
	if stale || final.State == sweep.StateCancelled {
		// The lease moved on before the shard finished, but the cells
		// that did finish are real work: upload them — the coordinator's
		// stale-merge path accepts and dedups them, and the re-assignee's
		// lease then excludes those cells. Unlike a routine complete
		// failure (which only costs a lease TTL — the shard re-assigns),
		// records dropped here have no second chance, so the retry
		// budget is deeper before giving up.
		if recs := mem.Records(); len(recs) > 0 {
			if err := w.complete(ctx, l, recs, abandonAttempts); err != nil {
				w.cfg.logf("shard %s/%d abandoned (stale lease); %d partial record(s) DROPPED after %d upload attempts: %v",
					l.Sweep, l.Shard, len(recs), abandonAttempts, err)
			} else {
				w.cfg.logf("shard %s/%d abandoned (stale lease), %d partial record(s) uploaded", l.Sweep, l.Shard, len(recs))
			}
		} else {
			w.cfg.logf("shard %s/%d abandoned (stale lease), nothing to upload", l.Sweep, l.Shard)
		}
		return false
	}
	if err := w.complete(ctx, l, mem.Records(), completeAttempts); err != nil {
		w.cfg.logf("complete %s/%d: %v (lease will expire and re-assign)", l.Sweep, l.Shard, err)
		return false
	}
	w.cfg.logf("completed shard %s/%d: %d done, %d failed", l.Sweep, l.Shard, final.Done, final.Failed)
	return true
}

func (w *worker) lease(ctx context.Context) (leaseResponse, error) {
	var resp leaseResponse
	err := w.post(ctx, "/coord/lease", leaseRequest{Worker: w.name, Tags: w.tags, MaxCells: w.cfg.MaxCells}, &resp)
	return resp, err
}

// heartbeat renews the lease, reporting false once the coordinator
// answers that the worker no longer holds it.
func (w *worker) heartbeat(ctx context.Context, l Lease) (bool, error) {
	var resp heartbeatResponse
	if err := w.post(ctx, "/coord/heartbeat", heartbeatRequest{Worker: w.name, Sweep: l.Sweep, Shard: l.Shard, Tags: w.tags, MaxCells: w.cfg.MaxCells}, &resp); err != nil {
		return false, err
	}
	return resp.Status == statusOK, nil
}

// Upload retry budgets. A routine complete failure only costs a lease
// TTL (the shard re-assigns and re-runs elsewhere), so its budget is
// modest; records on an abandoned stale shard have no re-run covering
// the cells that *did* finish cheaply, so that path retries deeper
// before letting them die.
const (
	completeAttempts = 3
	abandonAttempts  = 6
)

// complete uploads the shard's records, retrying transient transport
// errors with exponential backoff — retrying is much cheaper than
// re-simulating the shard elsewhere, and a server mid-restart is back
// within a few seconds.
func (w *worker) complete(ctx context.Context, l Lease, recs []sweep.CellRecord, attempts int) error {
	req := completeRequest{Worker: w.name, Sweep: l.Sweep, Shard: l.Shard, Records: recs}
	backoff := 250 * time.Millisecond
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			w.cfg.logf("complete %s/%d attempt %d/%d: %v (retrying in %s)", l.Sweep, l.Shard, attempt, attempts, err, backoff)
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(backoff):
			}
			if backoff < 4*time.Second {
				backoff *= 2
			}
		}
		var resp completeResponse
		if err = w.post(ctx, "/coord/complete", req, &resp); err == nil {
			return nil
		}
	}
	return err
}

func (w *worker) post(ctx context.Context, path string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("coord: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}
