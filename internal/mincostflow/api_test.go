package mincostflow

import (
	"math"
	"testing"
)

func TestGraphAccessors(t *testing.T) {
	g := NewGraph(3)
	if g.NumNodes() != 3 || g.NumArcs() != 0 {
		t.Fatalf("fresh graph: nodes=%d arcs=%d", g.NumNodes(), g.NumArcs())
	}
	g.AddArc(0, 1, 2, 0.5)
	g.AddArc(1, 2, 1, 0.25)
	if g.NumArcs() != 2 {
		t.Fatalf("NumArcs = %d", g.NumArcs())
	}
	sv := NewSolver(g, 0, 2)
	flow, cost := sv.MinCostFlow(math.MaxInt64)
	if flow != 1 || math.Abs(cost-0.75) > 1e-12 {
		t.Fatalf("flow=%d cost=%v", flow, cost)
	}
	if sv.TotalFlow() != 1 || math.Abs(sv.TotalCost()-0.75) > 1e-12 {
		t.Fatalf("totals = %d, %v", sv.TotalFlow(), sv.TotalCost())
	}
}

func TestAugmentBelowStopsAtBound(t *testing.T) {
	// Two unit paths: costs 0.4 and 0.9. With bound 0.5 only the cheap one
	// is taken; a second call reports the rejected cost.
	g := NewGraph(4)
	g.AddArc(0, 1, 1, 0.4)
	g.AddArc(1, 3, 1, 0)
	g.AddArc(0, 2, 1, 0.9)
	g.AddArc(2, 3, 1, 0)
	sv := NewSolver(g, 0, 3)
	units, cost, ok := sv.AugmentBelow(10, 0.5)
	if !ok || units != 1 || math.Abs(cost-0.4) > 1e-12 {
		t.Fatalf("first AugmentBelow = (%d, %v, %v)", units, cost, ok)
	}
	units, cost, ok = sv.AugmentBelow(10, 0.5)
	if ok || units != 0 {
		t.Fatalf("second AugmentBelow pushed %d units", units)
	}
	if math.Abs(cost-0.9) > 1e-12 {
		t.Fatalf("rejected cost = %v, want 0.9", cost)
	}
	// Raising the bound lets the expensive path through.
	if units, _, ok = sv.AugmentBelow(10, 1.0); !ok || units != 1 {
		t.Fatalf("bound raise failed: (%d, %v)", units, ok)
	}
	// Saturated network: not ok, zero cost reported.
	if _, _, ok = sv.AugmentBelow(10, 1.0); ok {
		t.Fatal("saturated network still augmented")
	}
	if _, _, ok := sv.AugmentBelow(0, 1.0); ok {
		t.Fatal("zero maxUnits augmented")
	}
}
