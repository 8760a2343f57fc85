package mincostflow

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// kernelInstance is a small GEACC-shaped network: capacities plus a
// similarity matrix whose pair costs are 1 − sim.
type kernelInstance struct {
	capV, capU []int64
	sims       [][]float64
}

// randomKernelInstance draws an nv×nu instance. levels 0 gives continuous
// similarities; levels ≥ 2 draws every similarity from levels evenly
// spaced values in [0, 1], so equal-cost paths and zero-gain units abound.
func randomKernelInstance(rng *rand.Rand, nv, nu, levels int) *kernelInstance {
	in := &kernelInstance{capV: make([]int64, nv), capU: make([]int64, nu), sims: make([][]float64, nv)}
	for v := range in.capV {
		in.capV[v] = 1 + int64(rng.Intn(3))
	}
	for u := range in.capU {
		in.capU[u] = 1 + int64(rng.Intn(3))
	}
	for v := range in.sims {
		in.sims[v] = make([]float64, nu)
		for u := range in.sims[v] {
			if levels < 2 {
				in.sims[v][u] = rng.Float64()
			} else {
				in.sims[v][u] = float64(rng.Intn(levels)) / float64(levels-1)
			}
		}
	}
	return in
}

func (in *kernelInstance) costs() [][]float64 {
	c := make([][]float64, len(in.sims))
	for v, row := range in.sims {
		c[v] = make([]float64, len(row))
		for u, s := range row {
			c[v][u] = 1 - s
		}
	}
	return c
}

func (in *kernelInstance) kernel() *Bipartite {
	k := AcquireBipartite(len(in.capV), len(in.capU))
	costs := in.costs()
	for v, c := range in.capV {
		k.SetEventCap(v, c)
		copy(k.CostRow(v), costs[v])
	}
	for u, c := range in.capU {
		k.SetUserCap(u, c)
	}
	return k
}

// reference returns the generic Solver on the same network.
func (in *kernelInstance) reference() (*Graph, *Solver) {
	g, s, t := buildBipartite(len(in.capV), len(in.capU), in.capV, in.capU, in.costs())
	return g, NewSolver(g, s, t)
}

// atDelta is the per-Δ oracle: a fresh generic min-cost flow of exactly
// delta units, returning its cost (ok = false when infeasible).
func (in *kernelInstance) atDelta(delta int64) (float64, bool) {
	_, sv := in.reference()
	flow, cost := sv.MinCostFlow(delta)
	return cost, flow == delta
}

// checkAgainstReference runs the kernel and the generic Solver under the
// MinCostFlow-GEACC stopping rule (augment while the unit cost is below 1)
// and requires identical Δ, non-decreasing kernel unit costs, matching
// MaxSum, and the per-Δ optimum at every prefix.
func checkAgainstReference(t *testing.T, in *kernelInstance) {
	t.Helper()
	k := in.kernel()
	var costs []float64
	for {
		c, ok := k.AugmentBelow(1)
		if !ok {
			break
		}
		costs = append(costs, c)
		if len(costs) > 1 && c < costs[len(costs)-2]-1e-9 {
			t.Fatalf("unit cost decreased: %v after %v", c, costs[len(costs)-2])
		}
		want, ok := in.atDelta(k.TotalFlow())
		if !ok || math.Abs(k.TotalCost()-want) > 1e-9 {
			t.Fatalf("Δ=%d: kernel cost %v, per-Δ optimum %v (feasible %v)", k.TotalFlow(), k.TotalCost(), want, ok)
		}
	}
	g, sv := in.reference()
	for {
		if _, _, ok := sv.AugmentBelow(math.MaxInt64, 1); !ok {
			break
		}
	}
	if k.TotalFlow() != sv.TotalFlow() {
		t.Fatalf("Δ: kernel %d, reference %d (kernel unit costs %v)", k.TotalFlow(), sv.TotalFlow(), costs)
	}
	nv, nu := len(in.capV), len(in.capU)
	var got, want float64
	for v := 0; v < nv; v++ {
		for u := 0; u < nu; u++ {
			if k.Flow(v, u) {
				got += in.sims[v][u]
			}
			if g.Flow(ArcID(2*(nv+nu+v*nu+u))) == 1 {
				want += in.sims[v][u]
			}
		}
	}
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("MaxSum(M∅): kernel %v, reference %v", got, want)
	}
}

// FuzzBipartiteMatchesReference differentially tests the kernel against
// the generic Solver. levels%11 < 2 gives continuous similarities, 2..10
// gives that many tied levels. The seed corpus lives in testdata/fuzz.
func FuzzBipartiteMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, nv, nu, levels uint8) {
		rng := rand.New(rand.NewSource(seed))
		in := randomKernelInstance(rng, 1+int(nv%6), 1+int(nu%8), int(levels%11))
		checkAgainstReference(t, in)
	})
}

func TestBipartiteMatchesReferenceContinuous(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		checkAgainstReference(t, randomKernelInstance(rng, 1+rng.Intn(6), 1+rng.Intn(8), 0))
	}
}

func TestBipartiteMatchesReferenceTied(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		checkAgainstReference(t, randomKernelInstance(rng, 1+rng.Intn(6), 1+rng.Intn(8), 2+rng.Intn(9)))
	}
}

// TestBipartitePoolConcurrent solves from pooled kernels on several
// goroutines at once (run it under -race): every solve must reproduce the
// sequential result bit for bit, so no state leaks between pool owners.
func TestBipartitePoolConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	instances := make([]*kernelInstance, 16)
	want := make([]float64, len(instances))
	for i := range instances {
		instances[i] = randomKernelInstance(rng, 2+rng.Intn(8), 2+rng.Intn(20), 0)
		k := instances[i].kernel()
		solveGEACC(k)
		want[i] = k.TotalCost()
		ReleaseBipartite(k)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (g + rep) % len(instances)
				k := instances[i].kernel()
				solveGEACC(k)
				if got := k.TotalCost(); got != want[i] {
					t.Errorf("instance %d: pooled cost %v, sequential %v", i, got, want[i])
				}
				ReleaseBipartite(k)
			}
		}()
	}
	wg.Wait()
}
