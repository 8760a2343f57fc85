package core_test

import (
	"fmt"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// TestFlowKernelBitIdenticalOnBenchBases pins the flow kernel to the
// generic-solver reference on the 16×160 Table III bases the end-to-end
// benchmark's min-cost-flow workload posts (seeds 1 and 20261017, 32 bases
// each, CF ratio 0.25): M∅, Δ and the final MaxSum must be bit-identical.
func TestFlowKernelBitIdenticalOnBenchBases(t *testing.T) {
	for _, seed := range []int64{1, 20261017} {
		for b := int64(0); b < 32; b++ {
			cfg := dataset.DefaultSynthetic()
			cfg.NumEvents, cfg.NumUsers = 16, 160
			cfg.CFRatio = 0.25
			cfg.Seed = seed*7919 + b
			in, err := cfg.Generate()
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("seed %d base %d", seed, b)
			got, want := core.MinCostFlow(in), core.ReferenceMinCostFlow(in)
			if got.Delta != want.Delta {
				t.Fatalf("%s: Δ %d, reference %d", name, got.Delta, want.Delta)
			}
			if got.RelaxedMaxSum != want.RelaxedMaxSum || got.Matching.MaxSum() != want.Matching.MaxSum() {
				t.Fatalf("%s: MaxSum(M∅) %v / %v, reference %v / %v", name,
					got.RelaxedMaxSum, got.Matching.MaxSum(), want.RelaxedMaxSum, want.Matching.MaxSum())
			}
			gp, wp := got.Relaxed.Pairs(), want.Relaxed.Pairs()
			if len(gp) != len(wp) {
				t.Fatalf("%s: |M∅| %d, reference %d", name, len(gp), len(wp))
			}
			for i := range gp {
				if gp[i] != wp[i] {
					t.Fatalf("%s: M∅ pair %d is %v, reference %v", name, i, gp[i], wp[i])
				}
			}
		}
	}
}
