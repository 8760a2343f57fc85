package mincostflow

import (
	"math"
	"math/rand"
	"testing"
)

func TestRestoreAndClearFlow(t *testing.T) {
	k := AcquireBipartite(2, 2)
	k.SetEventCap(0, 2)
	k.SetEventCap(1, 1)
	k.SetUserCap(0, 1)
	k.SetUserCap(1, 2)
	if !k.Restore(0, 0) || !k.Restore(0, 1) {
		t.Fatal("Restore rejected units within capacity")
	}
	if !k.Flow(0, 0) || !k.Flow(0, 1) || k.Flow(1, 0) || k.Flow(1, 1) {
		t.Fatal("flows after Restore")
	}
	if k.Restore(0, 1) {
		t.Fatal("Restore pushed a second unit onto a pair arc")
	}
	if k.Restore(1, 0) {
		t.Fatal("Restore exceeded user 0's capacity")
	}
	if !k.Restore(1, 1) || k.Restore(1, 1) {
		t.Fatal("Restore on (1,1)")
	}
	k.ClearFlow()
	for v := 0; v < 2; v++ {
		for u := 0; u < 2; u++ {
			if k.Flow(v, u) {
				t.Fatalf("pair (%d,%d) still flows after ClearFlow", v, u)
			}
		}
	}
	if k.resV[0] != 2 || k.resV[1] != 1 || k.resU[0] != 1 || k.resU[1] != 2 {
		t.Fatal("ClearFlow did not restore capacities")
	}
	if k.TotalFlow() != 0 || k.TotalCost() != 0 {
		t.Fatal("ClearFlow kept totals")
	}
}

// TestWarmStartRepairsNegativeCycle restores a flow that the delta made
// suboptimal: a new event v3 offers a much cheaper assignment into a
// saturated user, forming a negative-cost residual cycle through the
// restored flow. WarmStart must cancel it and land on the true optimum.
func TestWarmStartRepairsNegativeCycle(t *testing.T) {
	// Events v1, v2, v3 (index 0..2), one user u1 of capacity 2. The
	// previous solve (without v3) assigned both v1 and v2 to u1.
	k := AcquireBipartite(3, 1)
	for v, c := range []float64{0.40, 0.45, 0.10} {
		k.SetEventCap(v, 1)
		k.CostRow(v)[0] = c
	}
	k.SetUserCap(0, 2)
	if !k.Restore(0, 0) || !k.Restore(1, 0) {
		t.Fatal("restore failed")
	}
	st := k.WarmStart(nil)
	if !st.OK {
		t.Fatal("WarmStart did not converge")
	}
	if st.CyclesCanceled == 0 {
		t.Fatal("expected at least one negative cycle canceled")
	}
	if st.RestoredFlow != 2 {
		t.Fatalf("restored flow = %d, want 2", st.RestoredFlow)
	}
	if math.Abs(k.TotalCost()-0.50) > 1e-12 {
		t.Fatalf("repaired cost = %v, want 0.50", k.TotalCost())
	}
	if !k.Flow(0, 0) || k.Flow(1, 0) || !k.Flow(2, 0) {
		t.Fatalf("repaired support wrong: %v %v %v", k.Flow(0, 0), k.Flow(1, 0), k.Flow(2, 0))
	}
	// u1 is saturated, so no augmenting path remains.
	if _, ok := k.AugmentBelow(1); ok {
		t.Fatal("no augmenting path should remain")
	}
}

// warmNet is a GEACC-shaped test network: unit event capacities, per-user
// capacities, pair costs in (0,1). A dropped event keeps its row but gets
// capacity 0.
type warmNet struct {
	nv, nu  int
	userCap []int64
	cost    [][]float64
	dropped int // event index with capacity 0, or -1
}

func (w *warmNet) eventCap(v int) int64 {
	if v == w.dropped {
		return 0
	}
	return 1
}

func (w *warmNet) kernel() *Bipartite {
	k := AcquireBipartite(w.nv, w.nu)
	for v := 0; v < w.nv; v++ {
		k.SetEventCap(v, w.eventCap(v))
		copy(k.CostRow(v), w.cost[v])
	}
	for u, c := range w.userCap {
		k.SetUserCap(u, c)
	}
	return k
}

// reference solves the same network with the generic Solver and returns
// its pair flows.
func (w *warmNet) reference() (sv *Solver, flow [][]bool) {
	capV := make([]int64, w.nv)
	for v := range capV {
		capV[v] = w.eventCap(v)
	}
	g, s, tt := buildBipartite(w.nv, w.nu, capV, w.userCap, w.cost)
	sv = NewSolver(g, s, tt)
	for {
		if _, _, ok := sv.AugmentBelow(math.MaxInt64, 1); !ok {
			break
		}
	}
	flow = make([][]bool, w.nv)
	for v := range flow {
		flow[v] = make([]bool, w.nu)
		for u := range flow[v] {
			// Pair arcs follow the nv source and nu sink arcs, v-major.
			flow[v][u] = g.Flow(ArcID(2*(w.nv+w.nu+v*w.nu+u))) == 1
		}
	}
	return sv, flow
}

func solveGEACC(k *Bipartite) {
	for {
		if _, ok := k.AugmentBelow(1); !ok {
			return
		}
	}
}

// TestWarmMatchesColdRandomDeltas runs random delta streams: solve cold,
// perturb the network (new users, changed costs, removed events), restore
// the surviving flow, warm-start, retreat+augment, and check the result is
// the same flow the generic reference solver finds on the perturbed
// network.
func TestWarmMatchesColdRandomDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 120; trial++ {
		nv, nu := 2+rng.Intn(6), 2+rng.Intn(8)
		w := &warmNet{nv: nv, nu: nu, userCap: make([]int64, nu), cost: make([][]float64, nv), dropped: -1}
		for u := range w.userCap {
			w.userCap[u] = int64(1 + rng.Intn(3))
		}
		for v := range w.cost {
			w.cost[v] = make([]float64, nu)
			for u := range w.cost[v] {
				w.cost[v][u] = rng.Float64()
			}
		}
		k0 := w.kernel()
		solveGEACC(k0)
		prevPot := k0.Potentials(nil)

		// Delta: perturb a few costs, add a user, maybe drop an event.
		w2 := &warmNet{nv: nv, nu: nu + 1, userCap: append(append([]int64{}, w.userCap...), int64(1+rng.Intn(2))), dropped: -1}
		if rng.Intn(3) == 0 {
			w2.dropped = rng.Intn(nv)
		}
		w2.cost = make([][]float64, nv)
		for v := 0; v < nv; v++ {
			w2.cost[v] = make([]float64, nu+1)
			for u := 0; u <= nu; u++ {
				if u == nu || rng.Intn(10) == 0 {
					w2.cost[v][u] = rng.Float64()
				} else {
					w2.cost[v][u] = w.cost[v][u]
				}
			}
		}
		ref, refFlow := w2.reference()

		// Warm path: restore surviving flow where cost is unchanged.
		kw := w2.kernel()
		for v := 0; v < nv; v++ {
			for u := 0; u < nu; u++ {
				if k0.Flow(v, u) && w2.cost[v][u] == w.cost[v][u] {
					kw.Restore(v, u)
				}
			}
		}
		// Remap potentials: events and old users keep their nodes, the
		// sink moves from nv+nu+1 to nv+nu+2, the new user starts at zero.
		potInit := make([]float64, nv+nu+3)
		copy(potInit[:1+nv+nu], prevPot[:1+nv+nu])
		potInit[nv+nu+2] = prevPot[nv+nu+1]
		st := kw.WarmStart(potInit)
		if !st.OK {
			t.Fatalf("trial %d: WarmStart failed to converge", trial)
		}
		for {
			if _, ok := kw.RetreatAbove(1); !ok {
				break
			}
		}
		solveGEACC(kw)

		if kw.TotalFlow() != ref.TotalFlow() {
			t.Fatalf("trial %d: warm flow %d != reference flow %d", trial, kw.TotalFlow(), ref.TotalFlow())
		}
		if math.Abs(kw.TotalCost()-ref.TotalCost()) > 1e-9 {
			t.Fatalf("trial %d: warm cost %v != reference cost %v", trial, kw.TotalCost(), ref.TotalCost())
		}
		for v := 0; v < w2.nv; v++ {
			for u := 0; u < w2.nu; u++ {
				if kw.Flow(v, u) != refFlow[v][u] {
					t.Fatalf("trial %d: pair (%d,%d) warm flow %v != reference %v",
						trial, v, u, kw.Flow(v, u), refFlow[v][u])
				}
			}
		}
	}
}
