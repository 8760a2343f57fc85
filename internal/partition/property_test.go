package partition

import (
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
)

// TestPropertyDriftBoundedMinCostFlow is the package's soundness property on
// 200 seeded conflict-free instances, where min-cost flow is exact: the
// merged matching is always feasible, the measured MaxSum loss vs the
// monolithic solve never exceeds the reported DriftEstimate, and the
// returned matching (merged or fallback) never drifts past the budget.
//
// The bound argument the test pins down: the unsharded optimum splits into
// intra-shard value plus cut-pair value; the intra part restricted to shard
// s is feasible for s, so OPT <= sum(OPT(shard)) + LostCutBound <= merged +
// LostCutBound, hence (mono - merged)/mono <= LostCutBound/merged.
func TestPropertyDriftBoundedMinCostFlow(t *testing.T) {
	const seeds = 200
	budget := 0.2
	sharded := 0
	for seed := int64(0); seed < seeds; seed++ {
		frac := 0.05 + 0.05*float64(seed%5) // bridge fractions 0.05 .. 0.25
		in := bridged(t, 16, 120, 4, 0, frac, seed)
		m, st := solveSharded(t, in, "mincostflow", Options{MaxArea: 400, DriftBudget: budget})
		if err := core.Validate(in, m); err != nil {
			t.Fatalf("seed %d: merged matching infeasible: %v", seed, err)
		}
		mm := solveWhole(t, in, "mincostflow")
		drift := 0.0
		if ms := mm.MaxSum(); ms > 0 {
			drift = (ms - m.MaxSum()) / ms
		}
		if drift > budget+1e-9 {
			t.Fatalf("seed %d: drift %v past budget %v (fellback=%v)", seed, drift, budget, st.FellBack)
		}
		if st == nil {
			continue
		}
		if st.FellBack {
			if !samePairs(m, mm) {
				t.Fatalf("seed %d: fallback not bit-identical to mono", seed)
			}
			continue
		}
		if st.Shards > 1 {
			sharded++
			if drift > st.DriftEstimate+1e-9 {
				t.Fatalf("seed %d: measured drift %v exceeds estimate %v", seed, drift, st.DriftEstimate)
			}
		}
	}
	// The property must actually bite: most seeds shard without fallback.
	if sharded < seeds/2 {
		t.Fatalf("only %d/%d seeds exercised a sharded solve", sharded, seeds)
	}
}

// TestPropertyDriftBoundedExact re-runs the drift property with conflicts on
// tiny instances under the exact solver, where the Corollary-style bound
// argument holds with conflict edges present (cross-shard conflicts cannot
// bind because users never span shards).
func TestPropertyDriftBoundedExact(t *testing.T) {
	const seeds = 40
	budget := 0.25
	sharded := 0
	for seed := int64(0); seed < seeds; seed++ {
		in := bridged(t, 6, 24, 3, 0.3, 0.2, 1000+seed)
		m, st := solveSharded(t, in, "exact", Options{MaxArea: 48, DriftBudget: budget})
		if err := core.Validate(in, m); err != nil {
			t.Fatalf("seed %d: merged matching infeasible: %v", seed, err)
		}
		mm := solveWhole(t, in, "exact")
		drift := 0.0
		if ms := mm.MaxSum(); ms > 0 {
			drift = (ms - m.MaxSum()) / ms
		}
		if drift > budget+1e-9 {
			t.Fatalf("seed %d: drift %v past budget %v", seed, drift, budget)
		}
		if st != nil && !st.FellBack && st.Shards > 1 {
			sharded++
			if drift > st.DriftEstimate+1e-9 {
				t.Fatalf("seed %d: measured drift %v exceeds estimate %v (exact shards)", seed, drift, st.DriftEstimate)
			}
		}
	}
	if sharded == 0 {
		t.Fatal("no seed exercised a sharded exact solve")
	}
}
