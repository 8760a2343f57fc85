package core

import (
	"context"
	"sort"

	"github.com/ebsnlab/geacc/internal/mincostflow"
	"github.com/ebsnlab/geacc/internal/obs"
)

// FlowResult carries the output of MinCostFlow-GEACC plus diagnostics used
// by the experiments and tests.
type FlowResult struct {
	// Matching is the final feasible arrangement M (after conflict
	// resolution).
	Matching *Matching
	// Relaxed is M∅, the optimal arrangement of the conflict-free
	// relaxation. It may assign users to conflicting events.
	Relaxed *Matching
	// RelaxedMaxSum = MaxSum(M∅). By Corollary 1 it upper-bounds
	// MaxSum(M_OPT) of the conflict-constrained instance.
	RelaxedMaxSum float64
	// Delta is the flow amount Δ whose minimum-cost flow produced M∅.
	Delta int64
}

// FlowOptions tunes MinCostFlow-GEACC beyond the paper's defaults.
type FlowOptions struct {
	// ExactResolution replaces the paper's greedy per-user conflict
	// resolution (lines 8-14) with an exact maximum-weight-independent-set
	// computation per user. MWIS is NP-hard in general, but each user's
	// candidate set in M∅ has at most c_u ≤ |V| events, and a bitmask
	// dynamic program over those few events is cheap. An extension/ablation
	// knob: it can only improve MaxSum, and Theorem 2's ratio still holds.
	ExactResolution bool
}

// MinCostFlow runs MinCostFlow-GEACC (Algorithm 1 of the paper): solve the
// conflict-free relaxation exactly via minimum-cost flow over all flow
// amounts Δ ∈ [Δmin, Δmax], keep the best arrangement M∅, then resolve each
// user's conflicts greedily (a maximum-weight-independent-set heuristic).
// The result is feasible and within 1/max c_u of the optimum (Theorem 2).
//
// The Δ-sweep is computed incrementally: the successive-shortest-path solver
// yields, after the k-th augmentation, a minimum-cost flow of amount k, and
// augmenting-path costs never decrease, so MaxSum(M∅^Δ) = Δ − cost(Δ) is
// concave in Δ. Augmentation therefore stops at the first shortest path with
// per-unit cost ≥ 1 — exactly the Δ maximizing the sweep of lines 3-7.
func MinCostFlow(in *Instance) *FlowResult {
	return MinCostFlowOpts(in, FlowOptions{})
}

// MinCostFlowOpts runs MinCostFlow-GEACC with explicit options.
func MinCostFlowOpts(in *Instance, opt FlowOptions) *FlowResult {
	res, _ := minCostFlowCtx(context.Background(), in, opt)
	return res
}

// MinCostFlowCtx runs MinCostFlow-GEACC under a context. Cancellation is
// polled between successive augmenting paths — the unit of work of the
// Δ-sweep, and the only place the algorithm spends superlinear time — so a
// disconnected client stops a long run within one Dijkstra pass. A
// canceled run returns ctx's error and a nil result.
func MinCostFlowCtx(ctx context.Context, in *Instance, opt FlowOptions) (*FlowResult, error) {
	res, err := minCostFlowCtx(ctx, in, opt)
	if err != nil {
		return nil, err
	}
	return res, nil
}

func minCostFlowCtx(ctx context.Context, in *Instance, opt FlowOptions) (*FlowResult, error) {
	sp := obs.RecorderFrom(ctx).Start("mincostflow/relax")
	res, err := relaxedOptimumCtx(ctx, in)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = obs.RecorderFrom(ctx).Start("mincostflow/resolve")
	if opt.ExactResolution {
		res.Matching = resolveConflictsExact(in, res.Relaxed)
	} else {
		res.Matching = resolveConflicts(in, res.Relaxed)
	}
	sp.End()
	return res, nil
}

// RelaxedUpperBound returns MaxSum(M∅), the optimum of the conflict-free
// relaxation, which upper-bounds the conflict-constrained optimum
// (Corollary 1). Tests use it to sandwich algorithm results.
func RelaxedUpperBound(in *Instance) float64 {
	res, _ := relaxedOptimumCtx(context.Background(), in)
	return res.RelaxedMaxSum
}

// relaxedOptimumCtx solves the GEACC instance with CF = ∅ exactly
// (Lemma 1) via the minimum-cost-flow reduction of Section III.A, polling
// ctx between augmentations.
func relaxedOptimumCtx(ctx context.Context, in *Instance) (*FlowResult, error) {
	mcflowRuns.Inc()
	nv, nu := in.NumEvents(), in.NumUsers()
	res := &FlowResult{Relaxed: NewMatching()}
	if nv == 0 || nu == 0 {
		return res, nil
	}
	// One batched similarity row per event, computed once: the rows set the
	// pair costs and are read back for M∅. Nothing pooled escapes into the
	// returned FlowResult.
	sims := acquireFloats(nv * nu)
	defer releaseFloats(sims)
	for v := 0; v < nv; v++ {
		in.similarityRow(v, sims[v*nu:(v+1)*nu])
	}
	k := loadFlowNetwork(in, sims)
	defer mincostflow.ReleaseBipartite(k)
	if err := augmentRelaxed(ctx, k); err != nil {
		return nil, err
	}
	readRelaxed(res, k, sims, nu)
	return res, nil
}

// loadFlowNetwork builds Algorithm 1's network for in on a pooled kernel:
// source→event arcs of capacity c_v, user→sink arcs of capacity c_u, and a
// unit pair arc of cost 1 − sim(v, u) for every pair. Zero-similarity pairs
// stay in, exactly as the paper's construction demands: they make every Δ
// up to Δmax feasible, and Lemma 1 relies on that. sims is the row-major
// |V|×|U| similarity matrix. Release the kernel with
// mincostflow.ReleaseBipartite.
func loadFlowNetwork(in *Instance, sims []float64) *mincostflow.Bipartite {
	nv, nu := in.NumEvents(), in.NumUsers()
	k := mincostflow.AcquireBipartite(nv, nu)
	for v, e := range in.Events {
		k.SetEventCap(v, int64(e.Cap))
		row := k.CostRow(v)
		for u, s := range sims[v*nu : (v+1)*nu] {
			row[u] = 1 - s
		}
	}
	for u, usr := range in.Users {
		k.SetUserCap(u, int64(usr.Cap))
	}
	return k
}

// augmentRelaxed augments while a unit of flow still increases
// MaxSum = Δ − cost, i.e. while the next path's per-unit cost is below 1.
// Each iteration is one Dijkstra pass, so polling ctx here bounds the
// cancellation latency by a single shortest-path computation.
func augmentRelaxed(ctx context.Context, k *mincostflow.Bipartite) error {
	var augmentations int64
	defer func() { mcflowAugmentations.Add(augmentations) }()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, ok := k.AugmentBelow(1); !ok {
			return nil
		}
		augmentations++
	}
}

// readRelaxed records Δ and reads M∅ back into res: every flow pair with
// positive similarity, in (event, user) order.
func readRelaxed(res *FlowResult, k *mincostflow.Bipartite, sims []float64, nu int) {
	res.Delta = k.TotalFlow()
	mcflowDeltaUnits.Add(res.Delta)
	for i, s := range sims {
		if s > 0 && k.Flow(i/nu, i%nu) {
			res.Relaxed.Add(i/nu, i%nu, s)
		}
	}
	res.RelaxedMaxSum = res.Relaxed.MaxSum()
}

// resolveConflictsExact replaces the greedy selection with an exact
// per-user maximum-weight independent set, computed by enumerating subsets
// of the user's M∅ events (at most c_u of them, so 2^c_u states). Falls
// back to the greedy heuristic for pathological users with > 20 events.
func resolveConflictsExact(in *Instance, relaxed *Matching) *Matching {
	m := NewMatching()
	for u := 0; u < in.NumUsers(); u++ {
		events := relaxed.UserEvents(u)
		if len(events) == 0 {
			continue
		}
		if len(events) > 20 {
			for _, v := range greedyIndependent(in, u, events) {
				m.Add(v, u, in.Similarity(v, u))
			}
			continue
		}
		bestMask, bestSum := 0, -1.0
		for mask := 0; mask < 1<<len(events); mask++ {
			sum := 0.0
			ok := true
			for i := 0; ok && i < len(events); i++ {
				if mask&(1<<i) == 0 {
					continue
				}
				for j := i + 1; j < len(events); j++ {
					if mask&(1<<j) != 0 && in.Conflicting(events[i], events[j]) {
						ok = false
						break
					}
				}
				sum += in.Similarity(events[i], u)
			}
			if ok && sum > bestSum {
				bestMask, bestSum = mask, sum
			}
		}
		for i, v := range events {
			if bestMask&(1<<i) != 0 {
				m.Add(v, u, in.Similarity(v, u))
			}
		}
	}
	return m
}

// greedyIndependent is the paper's per-user greedy selection, returning the
// kept events.
func greedyIndependent(in *Instance, u int, events []int) []int {
	sorted := append([]int(nil), events...)
	sort.Slice(sorted, func(i, j int) bool {
		si, sj := in.Similarity(sorted[i], u), in.Similarity(sorted[j], u)
		if si != sj {
			return si > sj
		}
		return sorted[i] < sorted[j]
	})
	var kept []int
	for _, v := range sorted {
		if in.Conflicts != nil && in.Conflicts.ConflictsWithAny(v, kept) {
			continue
		}
		kept = append(kept, v)
	}
	return kept
}

// resolveConflicts implements lines 8-14 of Algorithm 1: for each user,
// greedily keep the most interesting pairwise-non-conflicting subset of the
// events M∅ assigned to that user.
func resolveConflicts(in *Instance, relaxed *Matching) *Matching {
	m := NewMatching()
	// Process users in ascending order for deterministic output.
	for u := 0; u < in.NumUsers(); u++ {
		events := relaxed.UserEvents(u)
		if len(events) == 0 {
			continue
		}
		for _, v := range greedyIndependent(in, u, events) {
			m.Add(v, u, in.Similarity(v, u))
		}
	}
	return m
}
