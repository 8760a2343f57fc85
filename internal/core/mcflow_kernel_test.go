package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/mincostflow"
)

// tiedMatrixInstance draws similarities from levels evenly spaced values
// in [0, 1], so equal-cost augmenting paths and zero-gain units abound.
func tiedMatrixInstance(rng *rand.Rand, nv, nu, levels int) *Instance {
	events := make([]Event, nv)
	for i := range events {
		events[i] = Event{Cap: 1 + rng.Intn(4)}
	}
	users := make([]User, nu)
	for i := range users {
		users[i] = User{Cap: 1 + rng.Intn(3)}
	}
	matrix := make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
		for u := range matrix[v] {
			matrix[v][u] = float64(rng.Intn(levels)) / float64(levels-1)
		}
	}
	in, err := NewMatrixInstance(events, users, conflict.Random(rng, nv, 0.3), matrix)
	if err != nil {
		panic(err)
	}
	return in
}

// TestFlowKernelMatchesReference drives the relaxation through the
// bipartite kernel and checks it against the generic-solver reference and
// the per-Δ oracle: after every unit, Δ − cost equals a fresh minimum-cost
// flow of that amount; at the end Δ is identical and MaxSum(M∅) agrees
// within 1e-9, on continuous and on tied similarities.
func TestFlowKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 160; trial++ {
		nv, nu := 1+rng.Intn(5), 1+rng.Intn(7)
		var in *Instance
		if trial%2 == 0 {
			in = randMatrixInstance(rng, nv, nu, 3, 3, 0.3)
		} else {
			in = tiedMatrixInstance(rng, nv, nu, 2+rng.Intn(9))
		}
		sims := make([]float64, nv*nu)
		for v := 0; v < nv; v++ {
			in.similarityRow(v, sims[v*nu:(v+1)*nu])
		}
		k := loadFlowNetwork(in, sims)
		for {
			if _, ok := k.AugmentBelow(1); !ok {
				break
			}
			delta := k.TotalFlow()
			want, ok := relaxedAtDelta(in, delta)
			if got := float64(delta) - k.TotalCost(); !ok || math.Abs(got-want) > 1e-9 {
				t.Fatalf("trial %d Δ=%d: kernel %v, oracle %v (feasible %v)", trial, delta, got, want, ok)
			}
		}
		mincostflow.ReleaseBipartite(k)

		got, err := relaxedOptimumCtx(context.Background(), in)
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceMinCostFlow(in)
		if got.Delta != ref.Delta {
			t.Fatalf("trial %d: Δ kernel %d, reference %d", trial, got.Delta, ref.Delta)
		}
		if math.Abs(got.RelaxedMaxSum-ref.RelaxedMaxSum) > 1e-9 {
			t.Fatalf("trial %d: MaxSum(M∅) kernel %v, reference %v", trial, got.RelaxedMaxSum, ref.RelaxedMaxSum)
		}
	}
}
