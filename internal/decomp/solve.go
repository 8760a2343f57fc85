package decomp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// Decomposition-layer observability. decomp_components_total counts
// components actually dispatched to a solver (stranded singletons never
// reach the pool); the size histogram observes |V|+|U| per component. The
// catalog entry lives in docs/OBSERVABILITY.md.
var (
	decompRuns          = obs.Default().Counter("geacc_decomp_runs_total")
	decompComponents    = obs.Default().Counter("geacc_decomp_components_total")
	decompComponentSize = obs.Default().Histogram("geacc_decomp_component_size", obs.DefaultSizeBuckets)
	decompBuildSeconds  = obs.Default().Histogram("geacc_decomp_build_seconds", obs.DefaultLatencyBuckets)
)

// Options tunes a decomposed solve.
type Options struct {
	// Workers bounds the component worker pool, and the shard pool nested
	// inside each sharded component's job; <= 0 means GOMAXPROCS(0). A pool
	// never exceeds its job count. The merged matching is invariant to
	// this value.
	Workers int
	// Seed drives the random baselines. Each component derives its own
	// deterministic seed from Seed and its component index, so results do
	// not depend on scheduling.
	Seed int64
	// ExactNodeLimit bounds Prune-GEACC's search per component; 0 means
	// unlimited. When any component trips the limit, the merged matching is
	// still feasible (each tripped component contributes its best-so-far)
	// and core.ErrNodeLimit is returned alongside it.
	ExactNodeLimit int64
	// SolveCache, when non-nil, memoizes per-component matchings keyed by
	// sub-instance content (see internal/solvecache). A hit skips the
	// component solve entirely and returns a clone of the cached matching —
	// bit-identical to a fresh solve by the cache's key contract.
	SolveCache *solvecache.Cache
	// SimID is the canonical similarity identity of the parent instance
	// (e.g. "euclidean/4/100"), required for SolveCache keying of
	// non-matrix instances; "" makes those components uncacheable.
	SimID string
	// WarmCache, when non-nil, enables warm-started min-cost flow for
	// mincostflow components: the previous solve of the same component
	// (keyed by its smallest parent event id) seeds flow and potentials so
	// a small delta re-solve skips most augmentations. Results stay
	// bit-exact vs the cold path.
	WarmCache *core.WarmCache
	// Shard, when non-nil, routes components whose |V|·|U| exceeds
	// Shard.MaxArea through internal/partition: the component is split
	// into balanced sub-shards, each solved through the ordinary
	// per-component machinery above (cache, warm flow, node limits), then
	// merged with a bounded-drift boundary repair. Components at or below
	// the threshold — and every component when Shard is nil — solve
	// exactly as before, bit-identically.
	Shard *partition.Options
	// ExactAreaLimit, when > 0, refuses an exact-gated solver (with a
	// *core.ExactGateError, before anything is solved) when the largest
	// component it would solve has |V|·|U| above the limit.
	ExactAreaLimit int64
}

// solveComponentFn is the per-component dispatch; tests swap it to inject
// faults and observe scheduling.
var solveComponentFn = solveComponent

// solveComponent runs one registry solver on one shard, consulting the
// optional per-instance solve cache and warm-flow cache from opt.
// Everything except cache hits and the warm flow path goes through
// core.SolveOpts, so the usual per-algorithm solve metrics and
// solve/<algo> spans fire once per component.
func solveComponent(ctx context.Context, algo string, c Component, compIdx int, opt Options) (*core.Matching, error) {
	info, err := core.LookupSolver(algo)
	if err != nil {
		return nil, err
	}
	seed := componentSeed(opt.Seed, compIdx)
	var key solvecache.Key
	cacheable := false
	if opt.SolveCache != nil {
		// Deterministic solvers key without the seed: an unchanged component
		// then hits even when a delta elsewhere shifted its component index
		// (and thus its derived seed).
		keySeed := seed
		if info.Deterministic {
			keySeed = 0
		}
		key, cacheable = solvecache.InstanceKey(c.Sub, solvecache.KeySpec{
			Algo:      algo,
			Seed:      keySeed,
			SimID:     opt.SimID,
			NodeLimit: opt.ExactNodeLimit,
		})
		if cacheable {
			if v, ok := opt.SolveCache.Get(key); ok {
				return v.(*core.Matching).Clone(), nil
			}
		}
	}
	var m *core.Matching
	if info.WarmCapable && opt.WarmCache != nil {
		m, err = core.MinCostFlowWarmCtx(ctx, c.Sub, c.Events, c.Users, opt.WarmCache)
	} else {
		m, err = core.SolveOpts(ctx, algo, c.Sub, core.SolveOptions{Seed: seed, NodeLimit: opt.ExactNodeLimit})
	}
	if err == nil && cacheable && m != nil {
		opt.SolveCache.Put(key, m.Clone())
	}
	return m, err
}

// shardSolve routes one oversized component through internal/partition:
// Split cuts it into sub-shards, each an ordinary Component (events/users
// lifted to parent indices) solved by solveComponentFn in the same worker
// pool as components, so the solve cache, the warm-started min-cost flow
// (keyed by the shard's smallest parent event id), and the node-limited
// exact path all compose inside shards; Merge then repairs the boundary
// and checks the drift budget. A component that does not split, or whose
// merge breaches the budget, is solved whole — the exact call the
// unsharded path would have made.
func (d *Decomposition) shardSolve(ctx context.Context, algo string, c Component, compIdx int, opt Options) (*core.Matching, error) {
	popt := opt.Shard.Normalized()
	rec := obs.RecorderFrom(ctx)
	sp := rec.Start("partition/component").
		Annotate("events", len(c.Events)).
		Annotate("users", len(c.Users))
	fail := func(err error) (*core.Matching, error) {
		sp.Annotate("error", err.Error()).End()
		return nil, err
	}
	sh, err := partition.Split(c.Sub, popt)
	if err != nil {
		return fail(err)
	}
	if sh == nil {
		m, err := solveComponentFn(ctx, algo, c, compIdx, opt)
		sp.Annotate("shards", 1).End()
		return m, err
	}
	results, budgetErr, err := runPool(ctx, len(sh.Shards), opt.Workers, func(j int) (*core.Matching, error) {
		s := sh.Shards[j]
		ssp := rec.Start("partition/shard").
			Annotate("shard", j).
			Annotate("events", len(s.Events)).
			Annotate("users", len(s.Users))
		sc := Component{Events: mapParent(c.Events, s.Events), Users: mapParent(c.Users, s.Users), Sub: s.Sub}
		// Synthetic per-shard index: gives each shard of each component a
		// distinct deterministic seed stream for the random baselines
		// (deterministic solvers ignore it, and cache keys hash the shard
		// content, so rare index collisions across components are benign).
		m, err := solveComponentFn(ctx, algo, sc, compIdx*4096+j+1, opt)
		endSolveSpan(ssp, m, err)
		return m, err
	})
	if err != nil {
		return fail(err)
	}
	m, st, err := partition.Merge(ctx, c.Sub, sh, results, popt)
	if err != nil {
		return fail(err)
	}
	d.recordPartition(st, popt)
	sp.Annotate("shards", st.Shards).
		Annotate("cut_pairs", st.CutPairs).
		Annotate("drift_estimate", st.DriftEstimate)
	if st.FellBack {
		m, err = solveComponentFn(ctx, algo, c, compIdx, opt)
		sp.Annotate("fallback", true).End()
		return m, err
	}
	sp.End()
	return m, budgetErr
}

// mapParent lifts component-local shard indices to parent indices.
func mapParent(parent, local []int) []int {
	out := make([]int, len(local))
	for i, x := range local {
		out[i] = parent[x]
	}
	return out
}

func (d *Decomposition) recordPartition(st *partition.Stats, popt partition.Options) {
	d.partMu.Lock()
	defer d.partMu.Unlock()
	if d.partStats == nil {
		d.partStats = &core.PartitionStats{
			DriftBudget: popt.DriftBudget,
			MaxArea:     popt.MaxArea,
		}
	}
	agg := d.partStats
	agg.Runs++
	agg.Shards += st.Shards
	if st.FellBack {
		agg.Fallbacks++
	}
	agg.CutPairs += st.CutPairs
	agg.CutConflicts += st.CutConflicts
	agg.RepairMoves += st.RepairMoves
	agg.RepairGain += st.RepairGain
	if !st.FellBack && st.DriftEstimate > agg.MaxDriftEstimate {
		agg.MaxDriftEstimate = st.DriftEstimate
	}
}

// componentSeed derives the deterministic per-component seed: a fixed odd
// multiplier spreads consecutive root seeds apart so component streams from
// different runs do not overlap trivially.
func componentSeed(seed int64, i int) int64 {
	return seed*0x9E3779B1 + int64(i)
}

func normalizeWorkers(workers, components int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if components > 0 && workers > components {
		workers = components
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// SolveContext runs the named registry solver over every component in a
// bounded worker pool and merges the per-component matchings into one
// parent-indexed matching.
//
// Determinism: components are numbered by first appearance, per-component
// seeds derive from that number, and results are merged in component order
// after all workers finish — so the matching (including its pair order and
// float-summed MaxSum) is identical for any worker count.
//
// Cancellation: ctx is polled before each dispatch and inside every solver
// (each component solve runs under ctx); the first cancellation or solver
// error aborts the run and returns that error with a nil matching.
// core.ErrNodeLimit is the one non-fatal error: tripped components keep
// their best-so-far matching and the error is returned with the merge.
func (d *Decomposition) SolveContext(ctx context.Context, algo string, opt Options) (*core.Matching, error) {
	n := len(d.Components)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	results, budgetErr, err := d.solveSet(ctx, algo, ids, opt)
	if err != nil {
		return nil, err
	}
	// Merge in component order: sub indices map back through the
	// component's parent-index slices. Similarities are bit-identical to
	// the parent's, so the merged matching validates against it.
	merged := core.NewMatching()
	for i, c := range d.Components {
		if results[i] == nil {
			continue
		}
		for _, p := range results[i].Pairs() {
			merged.Add(c.Events[p.V], c.Users[p.U], p.Sim)
		}
	}
	return merged, budgetErr
}

// SolveSubset runs the named registry solver over just the components named
// by ids (global component indices, as returned by DirtyComponents) and
// returns one sub-instance matching per solved component, keyed by
// component id. Seeds derive from the global component index, so a subset
// solve of component i is bit-identical to that component's share of a full
// SolveContext run. This is the incremental path: a delta that touched one
// component re-solves one component, not the instance.
func (d *Decomposition) SolveSubset(ctx context.Context, algo string, ids []int, opt Options) (map[int]*core.Matching, error) {
	for _, id := range ids {
		if id < 0 || id >= len(d.Components) {
			return nil, fmt.Errorf("decomp: component id %d out of range [0, %d)", id, len(d.Components))
		}
	}
	results, budgetErr, err := d.solveSet(ctx, algo, ids, opt)
	if err != nil {
		return nil, err
	}
	out := make(map[int]*core.Matching, len(ids))
	for id, m := range results {
		if m != nil {
			out[id] = m
		}
	}
	return out, budgetErr
}

// solveSet is the shared worker pool under SolveContext and SolveSubset: it
// dispatches the components named by ids and returns their matchings keyed
// by component id. Fatal errors return a nil map; core.ErrNodeLimit is
// non-fatal and returned alongside the results.
func (d *Decomposition) solveSet(ctx context.Context, algo string, ids []int, opt Options) (map[int]*core.Matching, error, error) {
	info, err := core.LookupSolver(algo)
	if err != nil {
		return nil, nil, err
	}
	var area int64
	for _, id := range ids {
		c := d.Components[id]
		area = max(area, int64(len(c.Events))*int64(len(c.Users)))
	}
	if _, err := info.Gate(area, opt.ExactAreaLimit, true); err != nil {
		return nil, nil, err
	}
	decompRuns.Inc()
	d.partMu.Lock()
	d.partStats = nil // fresh aggregate per solve run
	d.partMu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	n := len(ids)
	if n == 0 {
		return map[int]*core.Matching{}, nil, nil
	}
	workers := normalizeWorkers(opt.Workers, n)
	rec := obs.RecorderFrom(ctx)
	sp := rec.Start("decomp/solve").
		Annotate("algo", algo).
		Annotate("components", n).
		Annotate("workers", workers)

	results, budgetErr, err := runPool(ctx, n, workers, func(j int) (*core.Matching, error) {
		i := ids[j]
		c := d.Components[i]
		csp := rec.Start("decomp/component").
			Annotate("component", i).
			Annotate("events", len(c.Events)).
			Annotate("users", len(c.Users))
		var m *core.Matching
		var err error
		if sh := opt.Shard; sh != nil &&
			int64(len(c.Events))*int64(len(c.Users)) > sh.Normalized().MaxArea {
			m, err = d.shardSolve(ctx, algo, c, i, opt)
		} else {
			m, err = solveComponentFn(ctx, algo, c, i, opt)
		}
		decompComponents.Inc()
		decompComponentSize.Observe(float64(len(c.Events) + len(c.Users)))
		endSolveSpan(csp, m, err)
		return m, err
	})
	if err != nil {
		sp.Annotate("error", err.Error()).End()
		return nil, nil, err
	}
	byID := make(map[int]*core.Matching, n)
	var pairs int
	for j, id := range ids {
		if results[j] != nil {
			byID[id] = results[j]
			pairs += results[j].Size()
		}
	}
	sp.Annotate("pairs", pairs).End()
	return byID, budgetErr, nil
}

// runPool solves jobs 0..n-1 on at most workers goroutines (normalized like
// Options.Workers) and returns their matchings by job index — the one
// worker pool under components and, nested inside a component's job, its
// shards. ctx is polled before each job; after the first fatal error or
// cancellation the remaining jobs drain without solving, and the first
// fatal error by job index is returned with nil results. core.ErrNodeLimit
// is non-fatal: the job keeps its best-so-far matching and the error is
// returned alongside the results.
func runPool(ctx context.Context, n, workers int, solve func(j int) (*core.Matching, error)) ([]*core.Matching, error, error) {
	results := make([]*core.Matching, n)
	errs := make([]error, n)
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := normalizeWorkers(workers, n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if failed.Load() {
					continue
				}
				if err := ctx.Err(); err != nil {
					errs[j] = err
					failed.Store(true)
					continue
				}
				results[j], errs[j] = solve(j)
				if errs[j] != nil && !errors.Is(errs[j], core.ErrNodeLimit) {
					failed.Store(true)
				}
			}
		}()
	}
	for j := 0; j < n; j++ {
		jobs <- j
	}
	close(jobs)
	wg.Wait()

	var budgetErr error
	for _, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, core.ErrNodeLimit):
			budgetErr = err
		default:
			return nil, nil, err
		}
	}
	return results, budgetErr, nil
}

// endSolveSpan closes a per-job span: a fatal error annotates it, anything
// else (ErrNodeLimit included) records the matching's pair count.
func endSolveSpan(sp *obs.Span, m *core.Matching, err error) {
	if err != nil && !errors.Is(err, core.ErrNodeLimit) {
		sp.Annotate("error", err.Error()).End()
		return
	}
	sp.Annotate("pairs", m.Size()).End()
}
