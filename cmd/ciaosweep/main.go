// Command ciaosweep runs a declarative parameter sweep to completion
// from a JSON spec file (see examples/sweep-l1-capacity.json): axes
// over schedulers × benchmarks/classes × machine-configuration
// overrides expand into cells, cells execute through the same cached
// worker-pool engine as ciaoserve, and every outcome appends one line
// to the results directory's append-only results.ndjson.
//
// The store is what makes sweeps durable: kill the process at any
// point and re-run with -resume to execute only the remaining cells.
// Shards split one sweep across processes: -shard 0/2 and -shard 1/2
// against the same spec (but different -dir) each run half the cells,
// and -merge collapses the shard stores back into one. A ciaoserve
// runs the same sweeps in-process over POST /sweeps and resumes them
// itself after a restart.
//
//	ciaosweep -spec examples/sweep-l1-capacity.json -dir sweeps/l1
//	^C ...
//	ciaosweep -spec examples/sweep-l1-capacity.json -dir sweeps/l1 -resume
//	ciaosweep -spec spec.json -dir sweeps/merged -merge sweeps/a,sweeps/b
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/service"
	"repro/internal/sweep"
)

func main() {
	var (
		specPath = flag.String("spec", "", "sweep spec JSON file (required)")
		dir      = flag.String("dir", "", "results directory (default sweeps/<name>)")
		resume   = flag.Bool("resume", false, "resume an existing results directory, skipping completed cells")
		workers  = flag.Int("workers", 0, "max concurrently executing cells (0 = GOMAXPROCS)")
		entries  = flag.Int("cache", 256, "engine result-cache capacity in entries")
		shard    = flag.String("shard", "", "run only shard i of n, as i/n (e.g. 0/2)")
		merge    = flag.String("merge", "", "comma-separated shard store directories to merge into -dir, then exit")
		every    = flag.Duration("progress", 2*time.Second, "progress print interval (0 disables)")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("ciaosweep: ")

	var err error
	if *merge != "" {
		err = runMerge(*specPath, *dir, *merge)
	} else {
		err = run(*specPath, *dir, *resume, *workers, *entries, *shard, *every)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// runMerge collapses hand-sharded stores into one canonical store.
func runMerge(specPath, dir, srcs string) error {
	if specPath == "" {
		return errors.New("-spec is required")
	}
	if dir == "" {
		return errors.New("-merge needs an explicit -dir for the merged store")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	cells, err := spec.Expand()
	if err != nil {
		return err
	}
	store, err := openStore(dir, spec, len(cells), true)
	if err != nil {
		return err
	}
	defer store.Close()
	for _, src := range strings.Split(srcs, ",") {
		src = strings.TrimSpace(src)
		if src == "" {
			continue
		}
		merged, skipped, err := sweep.MergeStore(store, src)
		if err != nil {
			return err
		}
		log.Printf("merged %s: %d record(s) appended, %d duplicate(s) skipped", src, merged, skipped)
	}
	log.Printf("%s now holds %d/%d completed cells", dir, len(store.Completed()), len(cells))
	return nil
}

func run(specPath, dir string, resume bool, workers, entries int, shard string, every time.Duration) error {
	if specPath == "" {
		return errors.New("-spec is required")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	cells, err := spec.Expand()
	if err != nil {
		return err
	}
	shardIdx, shardN, err := parseShard(shard)
	if err != nil {
		return err
	}
	if dir == "" {
		dir = filepath.Join("sweeps", spec.Name)
	}

	store, err := openStore(dir, spec, len(cells), resume)
	if err != nil {
		return err
	}
	defer store.Close()

	engine := service.NewEngine(service.Config{Workers: workers, CacheEntries: entries})
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var lastPrint time.Time
	progress := func(p sweep.Progress) {
		if every <= 0 || time.Since(lastPrint) < every {
			return
		}
		lastPrint = time.Now()
		log.Printf("%d/%d done (%d skipped, %d failed) geomean-ipc=%.4f",
			p.Done, p.Total, p.Skipped, p.Failed, p.GeoMeanIPC)
	}
	start := time.Now()
	runner := &sweep.Runner{
		Engine:     engine,
		Store:      store,
		Indexes:    sweep.ShardIndexes(len(cells), shardIdx, shardN),
		OnProgress: progress,
	}
	final, err := runner.Run(ctx, cells)
	if err != nil {
		return err
	}

	summary := struct {
		Sweep   string      `json:"sweep"`
		Dir     string      `json:"dir"`
		Shard   string      `json:"shard,omitempty"`
		Elapsed string      `json:"elapsed"`
		Engine  engineStats `json:"engine"`
		sweep.Progress
	}{
		Sweep:    spec.Name,
		Dir:      dir,
		Elapsed:  time.Since(start).Round(time.Millisecond).String(),
		Engine:   engineStats{Simulations: engine.Simulations(), Cache: engine.Cache().Stats()},
		Progress: final,
	}
	if shardN > 1 {
		summary.Shard = fmt.Sprintf("%d/%d", shardIdx, shardN)
	}
	out, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(out))

	switch final.State {
	case sweep.StateCancelled:
		return fmt.Errorf("interrupted after %d/%d cells; re-run with -resume to finish", final.Done, final.Total)
	case sweep.StateDone:
		if final.Failed > 0 {
			return fmt.Errorf("%d of %d cells failed (see %s)", final.Failed, final.Total, store.ResultsPath())
		}
		return nil
	default:
		return fmt.Errorf("sweep ended in state %q", final.State)
	}
}

type engineStats struct {
	Simulations uint64 `json:"simulations"`
	Cache       any    `json:"cache"`
}

func readSpec(path string) (sweep.Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return sweep.Spec{}, err
	}
	defer f.Close()
	var spec sweep.Spec
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return sweep.Spec{}, fmt.Errorf("%s: %w", path, err)
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		return sweep.Spec{}, fmt.Errorf("%s: trailing data after spec", path)
	}
	return spec, nil
}

func openStore(dir string, spec sweep.Spec, totalCells int, resume bool) (*sweep.Store, error) {
	if resume {
		store, err := sweep.Open(dir, spec)
		if err == nil {
			log.Printf("resuming %s: %d/%d cells already complete", dir, len(store.Completed()), totalCells)
			return store, nil
		}
		if !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		// Nothing to resume yet: fall through and create.
	}
	store, err := sweep.Create(dir, spec.Name, spec, totalCells)
	if err != nil {
		return nil, fmt.Errorf("%w (pass -resume to continue it)", err)
	}
	return store, nil
}

func parseShard(s string) (idx, n int, err error) {
	if s == "" {
		return 0, 1, nil
	}
	parts := strings.Split(s, "/")
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n)", s)
	}
	idx, errI := strconv.Atoi(parts[0])
	n, errN := strconv.Atoi(parts[1])
	if errI != nil || errN != nil {
		return 0, 0, fmt.Errorf("bad -shard %q (want i/n)", s)
	}
	if n <= 0 || idx < 0 || idx >= n {
		return 0, 0, fmt.Errorf("bad -shard %q: index must lie in 0..n-1", s)
	}
	return idx, n, nil
}
