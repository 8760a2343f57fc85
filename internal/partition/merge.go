package partition

import (
	"context"
	"fmt"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Partition-layer observability: runs counts components actually sharded
// (single-shard degenerations and callers below the area threshold never
// reach it), shards/cut_edges/repair_moves accumulate per run, drift
// observes the per-run DriftEstimate, fallbacks counts hard-budget
// breaches. The catalog entry lives in docs/OBSERVABILITY.md.
var (
	partRuns        = obs.Default().Counter("geacc_partition_runs_total")
	partShards      = obs.Default().Counter("geacc_partition_shards_total")
	partCutEdges    = obs.Default().Counter("geacc_partition_cut_edges_total")
	partRepairMoves = obs.Default().Counter("geacc_partition_repair_moves_total")
	partFallbacks   = obs.Default().Counter("geacc_partition_fallbacks_total")
	partDrift       = obs.Default().Histogram("geacc_partition_drift", DriftBuckets)
)

// DriftBuckets are the histogram bounds for geacc_partition_drift: relative
// MaxSum-loss estimates, so the interesting range is well below 1.
var DriftBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25}

// Stats describes one Merge.
type Stats struct {
	Shards       int
	CutPairs     int
	CutConflicts int
	LostCutBound float64
	RepairMoves  int
	RepairGain   float64
	// DriftEstimate = LostCutBound / merged MaxSum — the bounded relative
	// loss vs the unsharded optimum (see the package comment).
	DriftEstimate float64
	// FellBack reports a drift-budget breach: the merged matching is
	// discarded and the caller must solve the component whole.
	FellBack bool
}

// Merge lifts the shard matchings (results[j] solves sh.Shards[j].Sub; nil
// entries contribute nothing) back into component indices in shard order,
// runs the boundary repair pass, and enforces the hard drift budget of opt.
// On a breach it returns a nil matching with
// Stats.FellBack set; otherwise the merged matching, validated against in.
func Merge(ctx context.Context, in *core.Instance, sh *Sharding, results []*core.Matching, opt Options) (*core.Matching, *Stats, error) {
	opt = opt.Normalized()
	st := &Stats{
		Shards:       len(sh.Shards),
		CutPairs:     len(sh.cuts),
		CutConflicts: sh.cutConflicts,
		LostCutBound: sh.lostCutBound,
	}
	merged := core.NewMatching()
	for j, s := range sh.Shards {
		if results[j] == nil {
			continue
		}
		for _, p := range results[j].Pairs() {
			merged.Add(s.Events[p.V], s.Users[p.U], p.Sim)
		}
	}

	rsp := obs.RecorderFrom(ctx).Start("partition/repair").Annotate("cut_pairs", len(sh.cuts))
	merged, st.RepairMoves, st.RepairGain = repairBoundary(in, merged, sh.cuts)
	rsp.Annotate("moves", st.RepairMoves).End()

	if ms := merged.MaxSum(); ms > 0 {
		st.DriftEstimate = sh.lostCutBound / ms
	} else if sh.lostCutBound > 0 {
		st.DriftEstimate = 1
	}
	partRuns.Inc()
	partShards.Add(int64(st.Shards))
	partCutEdges.Add(int64(st.CutPairs))
	partRepairMoves.Add(int64(st.RepairMoves))
	partDrift.Observe(st.DriftEstimate)

	if st.DriftEstimate > opt.DriftBudget {
		// Hard budget: the bounded loss is too large — solve unsharded.
		partFallbacks.Inc()
		st.FellBack = true
		return nil, st, nil
	}
	if err := core.Validate(in, merged); err != nil {
		return nil, nil, fmt.Errorf("partition: merged matching infeasible: %w", err)
	}
	return merged, st, nil
}
