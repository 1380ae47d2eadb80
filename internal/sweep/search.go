package sweep

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/harness"
)

// Search switches a sweep from a static configuration grid to an
// iterative successive-halving refinement: numeric override parameters
// declare ranges instead of point lists, the first round samples a
// coarse grid across the whole range box, and each later round keeps
// the top-k scoring configuration points, halves the region around
// each, and resamples. Every round expands into ordinary Cells that
// execute through the normal store/runner path, so a search is as
// resumable as a plain sweep — and the next round is a pure function
// of the spec plus the settled results, which is what makes a killed
// search re-derive identically on resume.
type Search struct {
	// Algo names the refinement strategy; "halving" (the default) is
	// the only one.
	Algo string `json:"algo,omitempty"`
	// Axes are the searched parameter ranges (1..4 of them).
	Axes []RangeAxis `json:"axes"`
	// Rounds is the number of refinement rounds (default 3, max 8).
	Rounds int `json:"rounds,omitempty"`
	// TopK is how many scoring points survive each round and spawn
	// half-width child regions (default 2, max 32).
	TopK int `json:"top_k,omitempty"`
	// Grid is the per-axis sample count inside each region (default 3,
	// 2..9), endpoints included.
	Grid int `json:"grid,omitempty"`
	// Objective ranks configuration points: "geomean_ipc" (default),
	// "mean_ipc" or "min_ipc" over the point's successful cells.
	Objective string `json:"objective,omitempty"`
}

// RangeAxis is one searched parameter range. Param names a numeric
// harness.Override field by its JSON tag (e.g. "mshr_entries",
// "ciao_high_cutoff"). Sampled values snap to the parameter's
// legality grid — integers round, warps_per_sm rounds to multiples of
// 8, Pow2 axes round to powers of two — so every derived cell is a
// valid machine by construction.
type RangeAxis struct {
	Param string  `json:"param"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Log samples (and subdivides) the range in log2 space — the right
	// scale for multiplicative parameters like cutoffs.
	Log bool `json:"log,omitempty"`
	// Pow2 restricts samples to powers of two (implies log-space
	// sampling); Min and Max must themselves be powers of two.
	Pow2 bool `json:"pow2,omitempty"`
}

// Search objectives.
const (
	ObjectiveGeoMeanIPC = "geomean_ipc"
	ObjectiveMeanIPC    = "mean_ipc"
	ObjectiveMinIPC     = "min_ipc"
)

// Search bounds. They cap the static worst case — every round issuing
// topk full child grids — against the sweep's max_cells before
// anything runs.
const (
	maxSearchAxes   = 4
	maxSearchRounds = 8
	maxSearchTopK   = 32
	minSearchGrid   = 2
	maxSearchGrid   = 9
)

// searchParam describes how one Override field is sampled: integer
// parameters snap to their step (1 unless noted), float ones sample
// continuously.
type searchParam struct {
	integer bool
	step    float64 // snap multiple for integer params (0 = 1)
	set     func(*harness.Override, float64)
}

// searchParams registers the Override fields a RangeAxis may name, by
// JSON tag. warps_per_sm steps by the CTA size the whole suite uses;
// everything else steps by 1.
var searchParams = map[string]searchParam{
	"l1_size_kb":       {integer: true, set: func(o *harness.Override, v float64) { o.L1SizeKB = int(math.Round(v)) }},
	"l1_ways":          {integer: true, set: func(o *harness.Override, v float64) { o.L1Ways = int(math.Round(v)) }},
	"shared_mem_kb":    {integer: true, set: func(o *harness.Override, v float64) { o.SharedMemKB = int(math.Round(v)) }},
	"warps_per_sm":     {integer: true, step: 8, set: func(o *harness.Override, v float64) { o.WarpsPerSM = int(math.Round(v)) }},
	"vta_entries":      {integer: true, set: func(o *harness.Override, v float64) { o.VTAEntriesPerWarp = int(math.Round(v)) }},
	"mshr_entries":     {integer: true, set: func(o *harness.Override, v float64) { o.MSHREntries = int(math.Round(v)) }},
	"dram_bandwidth_x": {integer: true, set: func(o *harness.Override, v float64) { o.DRAMBandwidthX = int(math.Round(v)) }},
	"ciao_high_epoch":  {integer: true, set: func(o *harness.Override, v float64) { o.CIAOHighEpoch = uint64(math.Round(v)) }},
	"ciao_high_cutoff": {set: func(o *harness.Override, v float64) { o.CIAOHighCutoff = v }},
	"ciao_low_cutoff":  {set: func(o *harness.Override, v float64) { o.CIAOLowCutoff = v }},
}

// SearchParams lists the parameter names a RangeAxis may use, sorted.
func SearchParams() []string {
	out := make([]string, 0, len(searchParams))
	for k := range searchParams {
		out = append(out, k)
	}
	sortStrings(out)
	return out
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// searchAxis is a compiled RangeAxis: its parameter entry plus the
// sampling-space bounds.
type searchAxis struct {
	RangeAxis
	p searchParam
}

// logSpace reports whether the axis samples in log2 space.
func (a searchAxis) logSpace() bool { return a.Log || a.Pow2 }

// t maps a parameter value into sampling space; v inverts it.
func (a searchAxis) t(v float64) float64 {
	if a.logSpace() {
		return math.Log2(v)
	}
	return v
}

func (a searchAxis) v(t float64) float64 {
	if a.logSpace() {
		return math.Exp2(t)
	}
	return t
}

// snap rounds a raw sample onto the parameter's legality grid and
// clamps it into [Min, Max]. Snapping is monotone, so ascending raw
// samples stay ascending (duplicates collapse in sampleRegion).
func (a searchAxis) snap(v float64) float64 {
	if a.Pow2 {
		e := math.Round(math.Log2(v))
		if lo := math.Log2(a.Min); e < lo {
			e = lo
		}
		if hi := math.Log2(a.Max); e > hi {
			e = hi
		}
		return math.Exp2(e)
	}
	if a.p.integer {
		step := a.p.step
		if step <= 0 {
			step = 1
		}
		v = math.Round(v/step) * step
	}
	if v < a.Min {
		v = a.Min
	}
	if v > a.Max {
		v = a.Max
	}
	return v
}

// format renders one snapped value the way point signatures (and
// therefore config names) spell it.
func (a searchAxis) format(v float64) string {
	if a.p.integer {
		return strconv.FormatInt(int64(math.Round(v)), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// span is one axis's interval in sampling space.
type span struct{ lo, hi float64 }

// searchSpace is a validated, default-applied search compilation.
type searchSpace struct {
	rounds, topk, grid int
	objective          string
	axes               []searchAxis
	benches, scheds    []string
}

// compileSearch validates s.Search against the spec and applies
// defaults. It resolves the benchmark/scheduler axes eagerly so the
// worst-case cell count is checkable up front.
func (s Spec) compileSearch() (*searchSpace, error) {
	se := s.Search
	fail := func(format string, args ...any) error {
		return fmt.Errorf("sweep %s: search: "+format, append([]any{s.Name}, args...)...)
	}
	if se.Algo != "" && se.Algo != "halving" {
		return nil, fail("unknown algo %q (want \"halving\")", se.Algo)
	}
	if len(s.Axes.Configs) > 0 || len(s.Points) > 0 {
		return nil, fail("a search derives its own configuration points; drop axes.configs and points")
	}
	ss := &searchSpace{
		rounds:    se.Rounds,
		topk:      se.TopK,
		grid:      se.Grid,
		objective: se.Objective,
	}
	if ss.rounds == 0 {
		ss.rounds = 3
	}
	if ss.topk == 0 {
		ss.topk = 2
	}
	if ss.grid == 0 {
		ss.grid = 3
	}
	if ss.objective == "" {
		ss.objective = ObjectiveGeoMeanIPC
	}
	if ss.rounds < 1 || ss.rounds > maxSearchRounds {
		return nil, fail("rounds %d outside [1,%d]", ss.rounds, maxSearchRounds)
	}
	if ss.topk < 1 || ss.topk > maxSearchTopK {
		return nil, fail("top_k %d outside [1,%d]", ss.topk, maxSearchTopK)
	}
	if ss.grid < minSearchGrid || ss.grid > maxSearchGrid {
		return nil, fail("grid %d outside [%d,%d]", ss.grid, minSearchGrid, maxSearchGrid)
	}
	switch ss.objective {
	case ObjectiveGeoMeanIPC, ObjectiveMeanIPC, ObjectiveMinIPC:
	default:
		return nil, fail("unknown objective %q (want %s, %s or %s)",
			ss.objective, ObjectiveGeoMeanIPC, ObjectiveMeanIPC, ObjectiveMinIPC)
	}
	if len(se.Axes) == 0 || len(se.Axes) > maxSearchAxes {
		return nil, fail("%d axes outside [1,%d]", len(se.Axes), maxSearchAxes)
	}
	seen := map[string]bool{}
	for _, ra := range se.Axes {
		p, ok := searchParams[ra.Param]
		if !ok {
			return nil, fail("unknown param %q (want one of %s)", ra.Param, strings.Join(SearchParams(), ", "))
		}
		if seen[ra.Param] {
			return nil, fail("param %q repeated", ra.Param)
		}
		seen[ra.Param] = true
		if !(ra.Min > 0) || !(ra.Max >= ra.Min) {
			return nil, fail("param %q range [%g,%g] must satisfy 0 < min <= max", ra.Param, ra.Min, ra.Max)
		}
		if ra.Pow2 {
			if !p.integer {
				return nil, fail("param %q is not an integer; pow2 does not apply", ra.Param)
			}
			if !isPow2(ra.Min) || !isPow2(ra.Max) {
				return nil, fail("param %q pow2 bounds [%g,%g] must be powers of two", ra.Param, ra.Min, ra.Max)
			}
		}
		if p.integer {
			step := p.step
			if step <= 0 {
				step = 1
			}
			if !onStep(ra.Min, step) || !onStep(ra.Max, step) {
				return nil, fail("param %q bounds [%g,%g] must be multiples of %g", ra.Param, ra.Min, ra.Max, step)
			}
		}
		ss.axes = append(ss.axes, searchAxis{RangeAxis: ra, p: p})
	}
	benches, err := s.Axes.benches()
	if err != nil {
		return nil, err
	}
	scheds, err := s.Axes.scheds()
	if err != nil {
		return nil, err
	}
	ss.benches, ss.scheds = benches, scheds

	// Static worst case: round 0 samples one full grid, each later
	// round at most topk of them; every point crosses benches × scheds.
	perRegion := int64(1)
	for range ss.axes {
		perRegion *= int64(ss.grid)
	}
	worst := perRegion * (1 + int64(ss.rounds-1)*int64(ss.topk)) * int64(len(benches)) * int64(len(scheds))
	if max := int64(s.maxCells()); worst > max {
		return nil, fail("worst case %d cells (%d rounds × top_k %d × grid %d^%d axes × %d benches × %d scheds) exceeds the cap of %d; raise max_cells or shrink the search",
			worst, ss.rounds, ss.topk, ss.grid, len(ss.axes), len(benches), len(scheds), max)
	}
	return ss, nil
}

func isPow2(v float64) bool {
	n := int64(math.Round(v))
	return v == float64(n) && n > 0 && n&(n-1) == 0
}

func onStep(v, step float64) bool {
	q := math.Round(v / step)
	return v == q*step
}

// sig renders a point's canonical signature, the config name its cells
// carry: "param=value,..." in axis order.
func (ss *searchSpace) sig(pt []float64) string {
	var b strings.Builder
	for i, a := range ss.axes {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(a.Param)
		b.WriteByte('=')
		b.WriteString(a.format(pt[i]))
	}
	return b.String()
}

// override builds the harness override a point stands for.
func (ss *searchSpace) override(pt []float64) harness.Override {
	var ov harness.Override
	for i, a := range ss.axes {
		a.p.set(&ov, pt[i])
	}
	return ov
}

// sampleRegion samples the region's grid: per axis, grid evenly spaced
// values (endpoints included) snapped to the parameter's legality
// grid, per-axis duplicates collapsed; then the cross product in
// axis-major order.
func sampleRegion(axes []searchAxis, reg []span, grid int) [][]float64 {
	vals := make([][]float64, len(axes))
	for i, a := range axes {
		var vs []float64
		for g := 0; g < grid; g++ {
			t := reg[i].lo
			if grid > 1 {
				t += (reg[i].hi - reg[i].lo) * float64(g) / float64(grid-1)
			}
			v := a.snap(a.v(t))
			if len(vs) == 0 || v != vs[len(vs)-1] {
				vs = append(vs, v)
			}
		}
		vals[i] = vs
	}
	pts := [][]float64{{}}
	for _, vs := range vals {
		var next [][]float64
		for _, pt := range pts {
			for _, v := range vs {
				next = append(next, append(append([]float64(nil), pt...), v))
			}
		}
		pts = next
	}
	return pts
}

// PointScore ranks one configuration point by the search objective.
type PointScore struct {
	// Config is the point's signature — the config name its cells carry
	// in records and stores.
	Config string `json:"config"`
	// Values are the point's snapped parameter values.
	Values map[string]float64 `json:"values"`
	// Score is the objective over the point's successful cells (0 when
	// none succeeded).
	Score float64 `json:"score"`
	// Cells is how many of the point's cells scored.
	Cells int `json:"cells"`
}

// RoundMark journals one derived search round in the store manifest:
// how many configuration points it sampled, how many cells were new
// (not issued by an earlier round), and the cumulative issued total.
// Resume does not read the marks — the next round re-derives from the
// settled results — they are the durable audit trail of progression.
type RoundMark struct {
	Round       int `json:"round"`
	Points      int `json:"points"`
	NewCells    int `json:"new_cells"`
	TotalIssued int `json:"total_issued"`
}

// SearchPlan is the derivation of a search's current frontier: which
// round is next, its cells, and — once every round has settled — the
// final ranking.
type SearchPlan struct {
	// Round is the 0-based round the plan describes; Rounds the total.
	Round  int
	Rounds int
	// Points is how many configuration points the round samples.
	Points int
	// Issued counts the distinct cells issued through this round.
	Issued int
	// Unsettled counts this round's cells with neither a stored success
	// nor failure (0 once the round — and, on Finished, the search — is
	// settled).
	Unsettled int
	// NewCells are the round's cells not issued by any earlier round —
	// what the round actually executes. Indexes are positions in the
	// round's full cell list.
	NewCells []Cell
	// PriorDone/PriorFailed count settled outcomes among cells issued
	// by earlier rounds, for cumulative progress accounting.
	PriorDone   int
	PriorFailed int
	// Finished is set once every round has settled; Winners then ranks
	// the final round's points (top_k of them), and Done/Failed/
	// FinalGeo summarise every issued cell.
	Finished bool
	Winners  []PointScore
	Done     int
	Failed   int
	FinalGeo float64
}

// Mark shapes the plan's manifest round mark.
func (p *SearchPlan) Mark() RoundMark {
	return RoundMark{Round: p.Round, Points: p.Points, NewCells: len(p.NewCells), TotalIssued: p.Issued}
}

// fold lifts a round-local progress snapshot into search-wide terms:
// round counters, the cumulative issued total, and settled outcomes of
// earlier rounds. Prior successes also count as Skipped — like a
// resumed cell, they come from the store, not from this round's
// execution — which keeps observers' done-minus-skipped differencing
// exact across round boundaries.
func (p *SearchPlan) fold(pr Progress) Progress {
	pr.Round = p.Round + 1
	pr.Rounds = p.Rounds
	pr.Total = p.Issued
	pr.Done += p.PriorDone
	pr.Skipped += p.PriorDone
	pr.Failed += p.PriorFailed
	return pr
}

// Decorate wraps a round's progress observer with fold, mapping a
// round's terminal done states back to running — one round finishing
// is not the search finishing; RunSearch delivers the true final.
func (p *SearchPlan) Decorate(obs func(Progress)) func(Progress) {
	if obs == nil {
		return nil
	}
	return func(pr Progress) {
		pr = p.fold(pr)
		if pr.State == StateDone {
			pr.State = StateRunning
		}
		obs(pr)
	}
}

// finalProgress shapes the terminal snapshot of a finished search.
func (p *SearchPlan) finalProgress() Progress {
	return Progress{
		State:      StateDone,
		Total:      p.Issued,
		Done:       p.Done,
		Failed:     p.Failed,
		GeoMeanIPC: p.FinalGeo,
		Round:      p.Rounds,
		Rounds:     p.Rounds,
		Winners:    p.Winners,
	}
}

// rankedPoint pairs a public score with its sample index.
type rankedPoint struct {
	PointScore
	i int
}

// DeriveSearch derives the search frontier as a pure function of the
// spec and the settled results (a store's Completed and FailedCells
// sets): it replays round sampling from round 0, scoring and
// subdividing each fully settled round, and returns either the first
// round with unsettled cells or the finished ranking. Equal inputs
// derive equal plans byte for byte — the property crash-resume leans
// on. Both maps may be nil.
func (s Spec) DeriveSearch(completed map[string]float64, failed map[string]struct{}) (*SearchPlan, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("sweep: spec needs a name")
	}
	if s.Search == nil {
		return nil, fmt.Errorf("sweep %s: no search clause", s.Name)
	}
	ss, err := s.compileSearch()
	if err != nil {
		return nil, err
	}

	full := make([]span, len(ss.axes))
	for i, a := range ss.axes {
		full[i] = span{a.t(a.Min), a.t(a.Max)}
	}
	regions := [][]span{full}

	plan := &SearchPlan{Rounds: ss.rounds}
	seen := map[string]bool{}
	issued := 0
	priorDone, priorFailed := 0, 0
	var priorGeo Geo

	for r := 0; r < ss.rounds; r++ {
		// Sample every region; points that snap onto an already sampled
		// signature collapse (first region wins — regions arrive in
		// score order, so the better parent keeps the point).
		var (
			pts     [][]float64
			sigs    []string
			ptReg   []int
			sigSeen = map[string]bool{}
		)
		for ri, reg := range regions {
			for _, pt := range sampleRegion(ss.axes, reg, ss.grid) {
				sg := ss.sig(pt)
				if sigSeen[sg] {
					continue
				}
				sigSeen[sg] = true
				pts = append(pts, pt)
				sigs = append(sigs, sg)
				ptReg = append(ptReg, ri)
			}
		}
		configs := make([]Config, len(pts))
		for i := range pts {
			configs[i] = Config{Name: sigs[i], Override: ss.override(pts[i])}
		}
		roundSpec := Spec{
			Name:     fmt.Sprintf("%s/round%d", s.Name, r),
			Axes:     Axes{Schedulers: ss.scheds, Benchmarks: ss.benches, Configs: configs},
			Options:  s.Options,
			MaxCells: s.MaxCells,
		}
		roundCells, err := roundSpec.Expand()
		if err != nil {
			return nil, fmt.Errorf("sweep %s: search round %d: %w", s.Name, r, err)
		}

		var newCells []Cell
		unsettled := 0
		for _, c := range roundCells {
			key := c.Key()
			if !seen[key] {
				seen[key] = true
				issued++
				newCells = append(newCells, c)
			}
			if _, ok := completed[key]; ok {
				continue
			}
			if _, ok := failed[key]; ok {
				continue
			}
			unsettled++
		}
		plan.Round, plan.Points, plan.Issued = r, len(pts), issued
		plan.NewCells = newCells
		plan.PriorDone, plan.PriorFailed = priorDone, priorFailed
		if unsettled > 0 {
			plan.Unsettled = unsettled
			return plan, nil
		}

		// The round has settled: rank its points by the objective over
		// their successful cells.
		byConfig := map[string][]float64{}
		counted := map[string]bool{}
		for _, c := range roundCells {
			key := c.Key()
			// A key shared by several points scores for each, but only
			// once per (config, key) pair — Expand already deduped those.
			if ipc, ok := completed[key]; ok && !counted[c.Config+"\x00"+key] {
				counted[c.Config+"\x00"+key] = true
				byConfig[c.Config] = append(byConfig[c.Config], ipc)
			}
		}
		ranked := make([]rankedPoint, len(pts))
		for i := range pts {
			ipcs := byConfig[sigs[i]]
			vals := make(map[string]float64, len(ss.axes))
			for ai, a := range ss.axes {
				vals[a.Param] = pts[i][ai]
			}
			ranked[i] = rankedPoint{
				PointScore: PointScore{
					Config: sigs[i],
					Values: vals,
					Score:  objectiveScore(ss.objective, ipcs),
					Cells:  len(ipcs),
				},
				i: i,
			}
		}
		sortRanked(ranked)

		for _, c := range newCells {
			if ipc, ok := completed[c.Key()]; ok {
				priorDone++
				priorGeo.Add(ipc)
			} else {
				priorFailed++
			}
		}

		if r == ss.rounds-1 {
			top := ss.topk
			if top > len(ranked) {
				top = len(ranked)
			}
			plan.Finished = true
			plan.Winners = make([]PointScore, top)
			for i := 0; i < top; i++ {
				plan.Winners[i] = ranked[i].PointScore
			}
			plan.Done, plan.Failed = priorDone, priorFailed
			plan.FinalGeo = priorGeo.Mean()
			plan.PriorDone, plan.PriorFailed = priorDone, priorFailed
			return plan, nil
		}

		// Halve: each winner spawns a child region of half its parent's
		// width, centred on the winning point, clamped to the axis box.
		top := ss.topk
		if top > len(ranked) {
			top = len(ranked)
		}
		next := make([][]span, 0, top)
		for _, w := range ranked[:top] {
			parent := regions[ptReg[w.i]]
			child := make([]span, len(ss.axes))
			for ai, a := range ss.axes {
				width := parent[ai].hi - parent[ai].lo
				c := a.t(pts[w.i][ai])
				lo, hi := c-width/4, c+width/4
				if lo < full[ai].lo {
					lo = full[ai].lo
				}
				if hi > full[ai].hi {
					hi = full[ai].hi
				}
				child[ai] = span{lo, hi}
			}
			next = append(next, child)
		}
		regions = next
	}
	// Unreachable: the loop returns from its final round.
	return nil, fmt.Errorf("sweep %s: search derived no plan", s.Name)
}

// objectiveScore folds a point's successful-cell IPCs by objective.
func objectiveScore(objective string, ipcs []float64) float64 {
	if len(ipcs) == 0 {
		return 0
	}
	switch objective {
	case ObjectiveMeanIPC:
		sum := 0.0
		for _, v := range ipcs {
			sum += v
		}
		return sum / float64(len(ipcs))
	case ObjectiveMinIPC:
		min := ipcs[0]
		for _, v := range ipcs[1:] {
			if v < min {
				min = v
			}
		}
		return min
	default:
		var g Geo
		for _, v := range ipcs {
			g.Add(v)
		}
		return g.Mean()
	}
}

// sortRanked orders points by score descending, signature ascending —
// a total, deterministic order (insertion sort keeps it dependency-
// free; point counts are small).
func sortRanked(r []rankedPoint) {
	less := func(a, b rankedPoint) bool {
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Config < b.Config
	}
	for i := 1; i < len(r); i++ {
		for j := i; j > 0 && less(r[j], r[j-1]); j-- {
			r[j], r[j-1] = r[j-1], r[j]
		}
	}
}

// RoundRunner executes one derived round's new cells (plan.NewCells)
// to a terminal Progress.
type RoundRunner func(ctx context.Context, plan *SearchPlan) (Progress, error)

// RunSearch drives a halving search to completion against its store:
// derive the frontier, journal the round mark, execute the round
// through run, repeat. It returns the search-wide final progress
// (Winners populated on success). A round ending cancelled or failed
// stops the loop with that (folded) progress — re-running RunSearch
// against the same store resumes exactly where it stopped, because
// derivation reads only settled results.
func RunSearch(ctx context.Context, spec Spec, store *Store, run RoundRunner) (Progress, error) {
	if spec.Search == nil {
		err := fmt.Errorf("sweep %s: RunSearch needs a spec with a search clause", spec.Name)
		return Progress{State: StateFailed, Error: err.Error()}, err
	}
	prevRound, prevUnsettled := -1, 0
	for {
		plan, err := spec.DeriveSearch(store.Completed(), store.FailedCells())
		if err != nil {
			return Progress{State: StateFailed, Error: err.Error()}, err
		}
		if plan.Finished {
			// The final round's mark may not be journaled yet (it can
			// settle without issuing any new cell); complete the audit
			// trail, then stamp the search done.
			if err := store.MarkSearchRound(plan.Mark()); err != nil {
				return Progress{State: StateFailed, Error: err.Error()}, err
			}
			if err := store.MarkSearchDone(); err != nil {
				return Progress{State: StateFailed, Error: err.Error()}, err
			}
			return plan.finalProgress(), nil
		}
		// A completed round must shrink its unsettled set, or the loop
		// would spin forever on cells that can neither complete nor fail
		// (a round runner that skips cells).
		if plan.Round == prevRound && plan.Unsettled >= prevUnsettled {
			err := fmt.Errorf("sweep %s: search round %d did not settle (%d cell(s) still pending)",
				spec.Name, plan.Round, plan.Unsettled)
			final := plan.fold(Progress{State: StateFailed})
			final.Error = err.Error()
			return final, err
		}
		prevRound, prevUnsettled = plan.Round, plan.Unsettled
		if err := store.MarkSearchRound(plan.Mark()); err != nil {
			return Progress{State: StateFailed, Error: err.Error()}, err
		}
		final, err := run(ctx, plan)
		final = plan.fold(final)
		if err != nil {
			if final.Error == "" {
				final.Error = err.Error()
			}
			return final, err
		}
		if final.State != StateDone {
			// Cancelled or failed: stop with the folded snapshot; the
			// search resumes from here on the next run.
			return final, nil
		}
	}
}
