// Package pipeline is the one solve path shared by the HTTP server, the
// geacc-solve CLI, the geacc facade and the experiment harness: solver
// lookup, the optional decomposition and approximate sharding, the exact
// area gate, the solve, validation, and the diagnostics artifact. Callers
// keep only their own concerns (parsing, caching, output); everything a
// solver capability decides is read from the core registry, never from an
// algorithm name.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// Spec selects one solve.
type Spec struct {
	// Algo is a registry solver name (core.SolverNames).
	Algo string
	// Seed drives the random baselines and the portfolio's member streams.
	Seed int64
	// Decompose solves the connected components of the conflict/similarity
	// union graph separately and merges them (internal/decomp).
	Decompose bool
	// Workers bounds the component pool when decomposed; <= 0 means
	// GOMAXPROCS. The matching is identical for any value.
	Workers int
	// Shard, when non-nil, splits oversized components into sub-shards with
	// a bounded-drift merge (internal/partition); it implies Decompose.
	Shard *partition.Options
	// NodeLimit bounds Prune-GEACC's search, per component when decomposed;
	// 0 means unlimited.
	NodeLimit int64
	// Index selects greedy's nearest-neighbor index; only the default
	// composes with decomposition.
	Index core.IndexKind
	// Diag builds the diagnostics artifact into Result.Diagnostics.
	Diag bool
	// ExactAreaLimit refuses exact-gated solvers whose |V|·|U| (the largest
	// component's, when decomposed) exceeds it; 0 means no limit.
	ExactAreaLimit int64
}

func (s Spec) decomposed() bool { return s.Decompose || s.Shard != nil }

// KeySpec is the solve-cache key spec of this solve under the instance's
// canonical similarity identity.
func (s Spec) KeySpec(simID string) solvecache.KeySpec {
	k := solvecache.KeySpec{
		Algo:      s.Algo,
		Seed:      s.Seed,
		SimID:     simID,
		Decompose: s.decomposed(),
		Workers:   s.Workers,
		Diag:      s.Diag,
		NodeLimit: s.NodeLimit,
		Index:     int(s.Index),
	}
	if sh := s.Shard; sh != nil {
		k.ApproxShard = true
		k.ShardMaxArea = sh.MaxArea
		k.ShardDriftBudget = sh.DriftBudget
	}
	return k
}

// Result is one completed solve.
type Result struct {
	Matching *core.Matching
	// Elapsed is the solve's wall clock, decomposition included; validation
	// and diagnostics are not.
	Elapsed time.Duration
	// Decomposition and Partition are set when the solve was decomposed
	// (Partition only when a component was sharded).
	Decomposition *core.DecompositionStats
	Partition     *core.PartitionStats
	// Diagnostics is set when Spec.Diag asked for it.
	Diagnostics *core.Diagnostics

	gate *core.ExactGateStats
}

// Run solves in as spec says, validates the matching, and builds the
// diagnostics when asked. A refused exact search is a *core.ExactGateError;
// a tripped node limit returns the (feasible) result with core.ErrNodeLimit.
// With Diag, a recorder already on ctx collects the spans; otherwise a
// private one is attached.
func Run(ctx context.Context, in *core.Instance, spec Spec) (*Result, error) {
	var rec *obs.Recorder
	var spansBefore int
	var countersBefore map[string]int64
	if spec.Diag {
		if rec = obs.RecorderFrom(ctx); rec == nil {
			rec = obs.NewRecorder()
			ctx = obs.ContextWithRecorder(ctx, rec)
		}
		spansBefore = len(rec.Spans())
		countersBefore = obs.Default().Counters()
	}
	res, err := Solve(ctx, in, spec)
	if res == nil {
		return nil, err
	}
	if verr := core.Validate(in, res.Matching); verr != nil {
		return nil, fmt.Errorf("pipeline: infeasible matching: %w", verr)
	}
	if spec.Diag {
		d := core.BuildDiagnostics(spec.Algo, in, res.Matching, res.Elapsed, rec.Spans()[spansBefore:],
			obs.DiffCounters(countersBefore, obs.Default().Counters()))
		d.Decomposition = res.Decomposition
		d.ExactGate = res.gate
		if pst := res.Partition; pst != nil {
			// BoundLoss is the measured loss vs the unsharded Corollary 1
			// relaxation bound — exactly this run's diagnostics gap.
			pst.BoundLoss = d.Gap
			d.Partition = pst
		}
		res.Diagnostics = d
	}
	return res, err
}

// Solve is Run without validation and diagnostics, for callers that
// measure the solve alone (the experiment harness validates outside its
// timed window).
func Solve(ctx context.Context, in *core.Instance, spec Spec) (*Result, error) {
	info, err := core.LookupSolver(spec.Algo)
	if err != nil {
		return nil, err
	}
	if spec.decomposed() && spec.Index != core.IndexChunked {
		return nil, errors.New("pipeline: a greedy index does not compose with decompose (components use the default index)")
	}
	res := &Result{}
	start := time.Now()
	if !spec.decomposed() {
		if res.gate, err = info.Gate(int64(in.NumEvents())*int64(in.NumUsers()), spec.ExactAreaLimit, false); err != nil {
			return nil, err
		}
		res.Matching, err = core.SolveOpts(ctx, spec.Algo, in,
			core.SolveOptions{Seed: spec.Seed, NodeLimit: spec.NodeLimit, Index: spec.Index})
	} else {
		// Decomposed, the gate measures the largest component.
		d, derr := decomp.DecomposeContext(ctx, in)
		if derr != nil {
			return nil, derr
		}
		if res.gate, err = info.Gate(d.MaxComponentArea(), spec.ExactAreaLimit, true); err != nil {
			return nil, err
		}
		res.Matching, err = d.SolveContext(ctx, spec.Algo, decomp.Options{
			Workers:        spec.Workers,
			Seed:           spec.Seed,
			ExactNodeLimit: spec.NodeLimit,
			Shard:          spec.Shard,
		})
		res.Decomposition, res.Partition = d.Stats(spec.Workers), d.PartitionStats()
	}
	res.Elapsed = time.Since(start)
	if err != nil && !errors.Is(err, core.ErrNodeLimit) {
		return nil, err
	}
	return res, err
}
