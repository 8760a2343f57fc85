package bench

import (
	"context"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/pipeline"
)

// bridgedInstance builds a small bridged-clustered instance: one giant
// similarity component, the approximate-sharding workload. The CI bench
// smoke (-benchtime=10x ./internal/bench/...) runs these so a break in
// internal/partition shows up without waiting for the full snapshot job.
func bridgedInstance(tb testing.TB, nv, nu, communities int) *core.Instance {
	cfg := dataset.DefaultClustered()
	cfg.NumEvents = nv
	cfg.NumUsers = nu
	cfg.Communities = communities
	cfg.EventCapMax = 10
	cfg.UserCapMax = 4
	cfg.BridgeFrac = partitionBenchBridgeFrac
	cfg.Seed = int64(1000*nv + nu)
	in, err := cfg.Generate()
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

func BenchmarkPartitionShardedClusteredV40U400C8(b *testing.B) {
	in := bridgedInstance(b, 40, 400, 8)
	sh := partition.Options{MaxArea: 2000, DriftBudget: 0.9}.Normalized()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Run(context.Background(), in, pipeline.Spec{Algo: "mincostflow", Shard: &sh}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionMonolithicClusteredV40U400C8(b *testing.B) {
	in := bridgedInstance(b, 40, 400, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pipeline.Solve(context.Background(), in, pipeline.Spec{Algo: "mincostflow", Decompose: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitionSplitBuildClusteredV40U400C8(b *testing.B) {
	in := bridgedInstance(b, 40, 400, 8)
	// Shard solves are free (every shard contributes an empty matching),
	// so this times Split plus Merge's lift, boundary repair and drift
	// bookkeeping.
	opt := partition.Options{MaxArea: 2000, DriftBudget: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sh, err := partition.Split(in, opt)
		if err != nil || sh == nil {
			b.Fatalf("Split = (%v, %v), want a sharding", sh, err)
		}
		if _, _, err := partition.Merge(context.Background(), in, sh, make([]*core.Matching, len(sh.Shards)), opt); err != nil {
			b.Fatal(err)
		}
	}
}
