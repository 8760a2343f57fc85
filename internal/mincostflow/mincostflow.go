package mincostflow

import (
	"fmt"
	"math"

	"github.com/ebsnlab/geacc/internal/pqueue"
)

// Graph is a flow network under construction. Arcs are stored as
// forward/residual twins: arc i's twin is i^1.
type Graph struct {
	numNodes int
	to       []int32
	next     []int32
	head     []int32
	cap      []int64
	cost     []float64
}

// ArcID identifies an arc returned by AddArc.
type ArcID int32

// NewGraph returns an empty network with n nodes labeled 0..n-1.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("mincostflow: non-positive node count %d", n))
	}
	head := make([]int32, n)
	for i := range head {
		head[i] = -1
	}
	return &Graph{numNodes: n, head: head}
}

// NumNodes returns the number of nodes in the network.
func (g *Graph) NumNodes() int { return g.numNodes }

// NumArcs returns the number of forward arcs added so far.
func (g *Graph) NumArcs() int { return len(g.to) / 2 }

// AddArc adds a directed arc from -> to with the given capacity and per-unit
// cost, returning its id. Capacities must be non-negative and costs finite.
func (g *Graph) AddArc(from, to int, capacity int64, cost float64) ArcID {
	if from < 0 || from >= g.numNodes || to < 0 || to >= g.numNodes {
		panic(fmt.Sprintf("mincostflow: arc (%d -> %d) out of range [0, %d)", from, to, g.numNodes))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("mincostflow: negative capacity %d", capacity))
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		panic(fmt.Sprintf("mincostflow: non-finite cost %v", cost))
	}
	id := ArcID(len(g.to))
	g.pushArc(from, int32(to), capacity, cost)
	g.pushArc(to, int32(from), 0, -cost)
	return id
}

func (g *Graph) pushArc(from int, to int32, capacity int64, cost float64) {
	g.to = append(g.to, to)
	g.next = append(g.next, g.head[from])
	g.head[from] = int32(len(g.to) - 1)
	g.cap = append(g.cap, capacity)
	g.cost = append(g.cost, cost)
}

// Flow returns the amount of flow currently on the arc. Valid after solving.
func (g *Graph) Flow(id ArcID) int64 {
	// Residual capacity accumulated on the twin equals the flow pushed.
	return g.cap[int32(id)^1]
}

// Solver runs SSPA on a graph. A Solver mutates the graph's residual
// capacities; build a fresh Graph (or Solver) per solve.
type Solver struct {
	g    *Graph
	s, t int
	pot  []float64
	dist []float64
	prev []int32 // arc used to reach each node on the current shortest path
	heap *pqueue.IndexedMinHeap

	totalFlow int64
	totalCost float64
}

// NewSolver prepares an SSPA run from source s to sink t. If the graph
// contains negative-cost arcs, initial potentials are computed with one
// Bellman–Ford pass; otherwise zero potentials are already valid (the GEACC
// reduction has only costs in [0, 1]).
func NewSolver(g *Graph, s, t int) *Solver {
	if s < 0 || s >= g.numNodes || t < 0 || t >= g.numNodes || s == t {
		panic(fmt.Sprintf("mincostflow: invalid terminals s=%d t=%d (n=%d)", s, t, g.numNodes))
	}
	n := g.numNodes
	sv := &Solver{
		g: g, s: s, t: t,
		pot:  make([]float64, n),
		dist: make([]float64, n),
		prev: make([]int32, n),
		heap: pqueue.NewIndexedMinHeap(n),
	}
	for i := 0; i < len(g.cost); i += 2 {
		if g.cap[i] > 0 && g.cost[i] < 0 {
			sv.bellmanFordPotentials()
			break
		}
	}
	return sv
}

// bellmanFordPotentials sets pot to shortest-path distances from s over
// positive-capacity arcs, making all reduced costs non-negative.
func (sv *Solver) bellmanFordPotentials() {
	g := sv.g
	const inf = math.MaxFloat64
	for i := range sv.pot {
		sv.pot[i] = inf
	}
	sv.pot[sv.s] = 0
	for iter := 0; iter < g.numNodes; iter++ {
		changed := false
		for from := 0; from < g.numNodes; from++ {
			if sv.pot[from] == inf {
				continue
			}
			for a := g.head[from]; a >= 0; a = g.next[a] {
				if g.cap[a] <= 0 {
					continue
				}
				if nd := sv.pot[from] + g.cost[a]; nd < sv.pot[g.to[a]] {
					sv.pot[g.to[a]] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	// Nodes unreachable from s can keep any finite potential; zero is fine
	// because they will never lie on an augmenting path.
	for i := range sv.pot {
		if sv.pot[i] == inf {
			sv.pot[i] = 0
		}
	}
}

// TotalFlow returns the amount of flow pushed so far.
func (sv *Solver) TotalFlow() int64 { return sv.totalFlow }

// TotalCost returns the cost of the flow pushed so far.
func (sv *Solver) TotalCost() float64 { return sv.totalCost }

// Augment finds a shortest (minimum-cost) augmenting path in the residual
// network and pushes along it up to maxUnits of flow (capped by the path's
// bottleneck). It returns the units pushed and the per-unit path cost.
// ok is false when the sink is no longer reachable; nothing is pushed then.
//
// Successive calls yield non-decreasing unitCost, and after each call the
// current flow is a minimum-cost flow of amount TotalFlow().
func (sv *Solver) Augment(maxUnits int64) (units int64, unitCost float64, ok bool) {
	if maxUnits <= 0 {
		return 0, 0, false
	}
	if !sv.dijkstra() {
		return 0, 0, false
	}
	// True path cost: reduced distance plus potential difference (computed
	// before the potential update inside pushAlongPath).
	unitCost = sv.dist[sv.t] + sv.pot[sv.t] - sv.pot[sv.s]
	units = sv.pushAlongPath(maxUnits, unitCost)
	return units, unitCost, true
}

// pushAlongPath updates potentials from the last Dijkstra run and pushes up
// to maxUnits along the recorded shortest path, returning the units pushed.
func (sv *Solver) pushAlongPath(maxUnits int64, unitCost float64) int64 {
	g := sv.g
	// Update potentials so future reduced costs stay non-negative.
	for v := 0; v < g.numNodes; v++ {
		if sv.dist[v] == math.MaxFloat64 {
			sv.pot[v] += sv.dist[sv.t]
		} else {
			sv.pot[v] += sv.dist[v]
		}
	}
	// Bottleneck along the recorded path.
	bottleneck := maxUnits
	for v := sv.t; v != sv.s; {
		a := sv.prev[v]
		if g.cap[a] < bottleneck {
			bottleneck = g.cap[a]
		}
		v = int(g.to[int32(a)^1])
	}
	// Push.
	for v := sv.t; v != sv.s; {
		a := sv.prev[v]
		g.cap[a] -= bottleneck
		g.cap[int32(a)^1] += bottleneck
		v = int(g.to[int32(a)^1])
	}
	sv.totalFlow += bottleneck
	sv.totalCost += float64(bottleneck) * unitCost
	return bottleneck
}

// dijkstra computes reduced-cost shortest paths from s, filling dist and
// prev. It reports whether t is reachable.
func (sv *Solver) dijkstra() bool {
	g := sv.g
	src := sv.s
	for i := range sv.dist {
		sv.dist[i] = math.MaxFloat64
		sv.prev[i] = -1
	}
	sv.heap.Reset()
	sv.dist[src] = 0
	sv.heap.Push(src, 0)
	for sv.heap.Len() > 0 {
		v, d := sv.heap.Pop()
		if d > sv.dist[v] {
			continue
		}
		for a := g.head[v]; a >= 0; a = g.next[a] {
			if g.cap[a] <= 0 {
				continue
			}
			w := int(g.to[a])
			rc := g.cost[a] + sv.pot[v] - sv.pot[w]
			if rc < 0 {
				// Floating-point drift can push a reduced cost epsilon
				// below zero; clamp so Dijkstra's invariant holds.
				rc = 0
			}
			if nd := d + rc; nd < sv.dist[w] {
				sv.dist[w] = nd
				sv.prev[w] = a
				sv.heap.Push(w, nd)
			}
		}
	}
	return sv.dist[sv.t] != math.MaxFloat64
}

// AugmentBelow is like Augment but pushes only when the shortest augmenting
// path's per-unit cost is strictly below costBound; otherwise it pushes
// nothing and returns ok = false with the cost that was rejected. Because
// successive path costs never decrease, a false return means no further
// augmentation can beat the bound either.
func (sv *Solver) AugmentBelow(maxUnits int64, costBound float64) (units int64, unitCost float64, ok bool) {
	if maxUnits <= 0 {
		return 0, 0, false
	}
	if !sv.dijkstra() {
		return 0, 0, false
	}
	unitCost = sv.dist[sv.t] + sv.pot[sv.t] - sv.pot[sv.s]
	if unitCost >= costBound {
		return 0, unitCost, false
	}
	units = sv.pushAlongPath(maxUnits, unitCost)
	return units, unitCost, true
}

// MinCostFlow pushes up to target units of flow at minimum cost, returning
// the flow achieved and its cost. Use target = math.MaxInt64 for min-cost
// max-flow.
func (sv *Solver) MinCostFlow(target int64) (flow int64, cost float64) {
	for sv.totalFlow < target {
		if _, _, ok := sv.Augment(target - sv.totalFlow); !ok {
			break
		}
	}
	return sv.totalFlow, sv.totalCost
}
