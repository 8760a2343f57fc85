package pipeline

import (
	"context"
	"errors"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/partition"
)

// clustered is a 16×64 instance of eight 2×8 communities: area 1024 whole,
// 16 per component.
func clustered(t *testing.T) *core.Instance {
	t.Helper()
	in, err := dataset.ClusteredConfig{
		NumEvents: 16, NumUsers: 64, Communities: 8, BlockDim: 2,
		EventCapMax: 3, UserCapMax: 2, CFRatio: 0.25, Seed: 9,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestRunExactGate(t *testing.T) {
	in := clustered(t)
	_, err := Run(context.Background(), in, Spec{Algo: "exact", ExactAreaLimit: 200})
	var gate *core.ExactGateError
	if !errors.As(err, &gate) || !gate.Stats.Gated || gate.Stats.ComponentArea != 1024 || gate.Decomposed {
		t.Fatalf("plain exact over the limit: %v", err)
	}
	res, err := Run(context.Background(), in, Spec{Algo: "exact", Decompose: true, Diag: true, ExactAreaLimit: 200})
	if err != nil {
		t.Fatal(err)
	}
	if g := res.Diagnostics.ExactGate; g == nil || g.Gated || g.ComponentArea != 16 || g.Limit != 200 {
		t.Fatalf("admitted gate %+v", g)
	}
	// Non-exact solvers and unlimited callers never see a gate.
	for _, spec := range []Spec{{Algo: "greedy", Diag: true, ExactAreaLimit: 200}, {Algo: "portfolio", Diag: true, ExactAreaLimit: 200}} {
		res, err := Run(context.Background(), in, spec)
		if err != nil || res.Diagnostics.ExactGate != nil {
			t.Fatalf("%s: err %v gate %+v", spec.Algo, err, res.Diagnostics.ExactGate)
		}
	}
}

func TestRunNodeLimitKeepsFeasibleResult(t *testing.T) {
	in := clustered(t)
	for _, decompose := range []bool{false, true} {
		res, err := Run(context.Background(), in, Spec{Algo: "exact", Decompose: decompose, NodeLimit: 1})
		if !errors.Is(err, core.ErrNodeLimit) || res == nil || res.Matching == nil {
			t.Fatalf("decompose=%v: res %v err %v", decompose, res, err)
		}
	}
}

func TestRunRejects(t *testing.T) {
	in := clustered(t)
	if _, err := Run(context.Background(), in, Spec{Algo: "quantum"}); err == nil {
		t.Fatal("unknown solver accepted")
	}
	if _, err := Run(context.Background(), in, Spec{Algo: "greedy", Decompose: true, Index: core.IndexKDTree}); err == nil {
		t.Fatal("index accepted under decompose")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, in, Spec{Algo: "mincostflow", Decompose: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run: %v", err)
	}
}

// TestRunShardDiagnostics: a sharded solve reports its decomposition and
// partition stats, and the partition's BoundLoss restates the gap.
func TestRunShardDiagnostics(t *testing.T) {
	in, err := dataset.ClusteredConfig{
		NumEvents: 12, NumUsers: 48, Communities: 3, BlockDim: 2,
		EventCapMax: 3, UserCapMax: 2, CFRatio: 0.25, BridgeFrac: 0.25, Seed: 5,
	}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	sh := partition.Options{MaxArea: 150, DriftBudget: 0.9}.Normalized()
	res, err := Run(context.Background(), in, Spec{Algo: "greedy", Shard: &sh, Diag: true})
	if err != nil {
		t.Fatal(err)
	}
	d := res.Diagnostics
	if d.Decomposition == nil || d.Decomposition.Components != 1 {
		t.Fatalf("decomposition %+v", d.Decomposition)
	}
	if d.Partition == nil || d.Partition.Shards < 2 || d.Partition.BoundLoss != d.Gap {
		t.Fatalf("partition %+v, gap %v", d.Partition, d.Gap)
	}
	if len(d.Phases) == 0 || d.Seconds != res.Elapsed.Seconds() {
		t.Fatalf("phases %v seconds %v elapsed %v", d.Phases, d.Seconds, res.Elapsed)
	}
}

// TestRunDiagReusesContextRecorder: a caller's recorder (geacc-solve
// -trace-out) collects the diagnosed solve's spans, and the phases are
// exactly those spans.
func TestRunDiagReusesContextRecorder(t *testing.T) {
	rec := obs.NewRecorder()
	ctx := obs.ContextWithRecorder(context.Background(), rec)
	res, err := Run(ctx, clustered(t), Spec{Algo: "greedy", Diag: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Spans()); n == 0 || len(res.Diagnostics.Phases) != n {
		t.Fatalf("%d spans on the caller's recorder, %d phases", n, len(res.Diagnostics.Phases))
	}
}

func TestSpecKeySpec(t *testing.T) {
	sh := partition.Options{MaxArea: 150, DriftBudget: 0.9}.Normalized()
	k := Spec{Algo: "greedy", Seed: 3, Workers: 2, Shard: &sh, Diag: true}.KeySpec("cosine")
	if !k.Decompose || !k.ApproxShard || k.ShardMaxArea != 150 ||
		k.ShardDriftBudget != 0.9 || k.SimID != "cosine" || k.Seed != 3 || k.Workers != 2 || !k.Diag {
		t.Fatalf("key spec %+v", k)
	}
	if k := (Spec{Algo: "greedy", Index: core.IndexSorted}).KeySpec(""); k.Decompose || k.ApproxShard || k.Index != int(core.IndexSorted) {
		t.Fatalf("plain key spec %+v", k)
	}
}
