package decomp

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// bridgedClustered generates a clustered instance chained into one giant
// component by bridge users — the shape Options.Shard exists for.
func bridgedClustered(t *testing.T, nv, nu, k int, seed int64) *core.Instance {
	t.Helper()
	cfg := dataset.ClusteredConfig{
		NumEvents: nv, NumUsers: nu, Communities: k, BlockDim: 2,
		EventCapMax: 6, UserCapMax: 3, CFRatio: 0.25,
		BridgeFrac: 0.1, Seed: seed,
	}
	in, err := cfg.Generate()
	if err != nil {
		t.Fatalf("bridged generate: %v", err)
	}
	return in
}

func solvePairs(t *testing.T, in *core.Instance, opt Options) ([]core.Assignment, *core.PartitionStats) {
	t.Helper()
	d, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	m, err := d.SolveContext(context.Background(), "mincostflow", opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.Validate(in, m); err != nil {
		t.Fatalf("merged matching infeasible: %v", err)
	}
	return m.SortedPairs(), d.PartitionStats()
}

// TestShardNilAndOversizeThresholdBitIdentical: with Shard nil, or with a
// MaxArea no component exceeds, the solve is bit-identical to the plain
// decomposed path and reports no partition activity.
func TestShardNilAndOversizeThresholdBitIdentical(t *testing.T) {
	in := bridgedClustered(t, 24, 240, 6, 5)
	base, pst := solvePairs(t, in, Options{})
	if pst != nil {
		t.Fatal("plain solve reported partition stats")
	}
	huge := partition.Options{MaxArea: 1 << 40}
	got, pst := solvePairs(t, in, Options{Shard: &huge})
	if pst != nil {
		t.Fatal("under-threshold shard solve reported partition stats")
	}
	if len(got) != len(base) {
		t.Fatalf("pair counts differ: %d vs %d", len(got), len(base))
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("pair %d differs: %+v vs %+v", i, got[i], base[i])
		}
	}
}

// TestShardGiantComponent: the one giant bridged component routes through
// internal/partition, producing a feasible merged matching, populated
// aggregate stats, and a worker-count-invariant result.
func TestShardGiantComponent(t *testing.T) {
	in := bridgedClustered(t, 24, 240, 6, 5)
	d, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Components) != 1 {
		t.Fatalf("bridged instance split into %d components, want 1", len(d.Components))
	}
	sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}
	base, pst := solvePairs(t, in, Options{Shard: &sh, Workers: 1})
	if pst == nil {
		t.Fatal("giant component produced no partition stats")
	}
	if pst.Runs != 1 || pst.Shards < 2 || pst.Fallbacks != 0 {
		t.Fatalf("unexpected aggregate stats %+v", pst)
	}
	if pst.MaxDriftEstimate <= 0 || pst.MaxDriftEstimate > sh.DriftBudget {
		t.Fatalf("drift estimate %v outside (0, %v]", pst.MaxDriftEstimate, sh.DriftBudget)
	}
	if pst.MaxArea != sh.MaxArea || pst.DriftBudget != sh.DriftBudget {
		t.Fatalf("options not echoed in stats %+v", pst)
	}
	for _, workers := range []int{2, 4} {
		got, _ := solvePairs(t, in, Options{Shard: &sh, Workers: workers})
		if len(got) != len(base) {
			t.Fatalf("workers=%d: pair counts differ", workers)
		}
		for i := range base {
			if got[i] != base[i] {
				t.Fatalf("workers=%d: pair %d differs", workers, i)
			}
		}
	}
}

// TestShardStatsResetPerRun: partition stats describe the latest solve run
// only — a following solve that shards nothing reports nil again.
func TestShardStatsResetPerRun(t *testing.T) {
	in := bridgedClustered(t, 24, 240, 6, 5)
	d, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}
	if _, err := d.SolveContext(context.Background(), "mincostflow", Options{Shard: &sh}); err != nil {
		t.Fatal(err)
	}
	if d.PartitionStats() == nil {
		t.Fatal("sharded run reported no stats")
	}
	if _, err := d.SolveContext(context.Background(), "mincostflow", Options{}); err != nil {
		t.Fatal(err)
	}
	if d.PartitionStats() != nil {
		t.Fatal("stats from the previous run leaked into an unsharded solve")
	}
}

// TestShardComposesWithSolveCache: shard sub-solves go through the ordinary
// per-component machinery, so a second identical run is served from the
// solve cache bit-identically.
func TestShardComposesWithSolveCache(t *testing.T) {
	in := bridgedClustered(t, 24, 240, 6, 5)
	cache := solvecache.New(64)
	sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}
	opt := Options{Shard: &sh, SolveCache: cache, SimID: "cosine/12/1"}
	base, _ := solvePairs(t, in, opt)
	if cache.Len() == 0 {
		t.Fatal("sharded solve populated no cache entries")
	}
	before := cache.Stats()
	got, _ := solvePairs(t, in, opt)
	if after := cache.Stats(); after.Hits <= before.Hits {
		t.Fatalf("re-run produced no cache hits (before %+v, after %+v)", before, after)
	}
	if len(got) != len(base) {
		t.Fatal("cached re-run differs")
	}
	for i := range base {
		if got[i] != base[i] {
			t.Fatalf("cached re-run pair %d differs", i)
		}
	}
}

// TestShardCancelMidShard cancels the context from inside the first shard
// solve: the remaining shards are skipped (the shard pool drains like the
// component pool) and the cancellation surfaces as the run's error with no
// matching.
func TestShardCancelMidShard(t *testing.T) {
	in := bridgedClustered(t, 24, 240, 6, 5)
	d, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	orig := solveComponentFn
	solveComponentFn = func(ctx context.Context, algo string, c Component, compIdx int, opt Options) (*core.Matching, error) {
		if calls.Add(1) == 1 {
			cancel() // the client goes away while shard 0 is in flight
		}
		return orig(ctx, algo, c, compIdx, opt)
	}
	defer func() { solveComponentFn = orig }()

	sh := partition.Options{MaxArea: 500, DriftBudget: 0.9}
	m, err := d.SolveContext(ctx, "mincostflow", Options{Shard: &sh, Workers: 1})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if m != nil {
		t.Fatalf("canceled solve returned a matching with %d pairs", m.Size())
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("%d shard solves dispatched after cancellation, want 1", got)
	}
}

// TestShardExactNodeLimit: a sharded exact solve whose shards trip a tiny
// node limit still merges their best-so-far matchings into a feasible
// arrangement, returned together with core.ErrNodeLimit.
func TestShardExactNodeLimit(t *testing.T) {
	in := bridgedClustered(t, 6, 24, 3, 1003)
	d, err := Decompose(in)
	if err != nil {
		t.Fatal(err)
	}
	sh := partition.Options{MaxArea: 48, DriftBudget: 1e9}
	m, err := d.SolveContext(context.Background(), "exact", Options{Shard: &sh, ExactNodeLimit: 2})
	if !errors.Is(err, core.ErrNodeLimit) {
		t.Fatalf("err = %v, want core.ErrNodeLimit", err)
	}
	if m == nil {
		t.Fatal("node-limited sharded solve returned no matching")
	}
	if err := core.Validate(in, m); err != nil {
		t.Fatalf("merged matching infeasible: %v", err)
	}
	pst := d.PartitionStats()
	if pst == nil || pst.Shards < 2 || pst.Fallbacks != 0 {
		t.Fatalf("solve did not merge a multi-shard split: %+v", pst)
	}
}
