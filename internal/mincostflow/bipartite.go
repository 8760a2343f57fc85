package mincostflow

import (
	"fmt"
	"math"
	"sync"
)

// Bipartite is the successive-shortest-path kernel specialised to the
// GEACC reduction's network: source → events → users → sink, with a unit
// pair arc from every event to every user. The whole network is a few flat
// arrays instead of an arc list:
//
//   - pair costs in one row-major nv×nu []float64 and pair flows in a
//     parallel []bool;
//   - source and sink arcs as per-event and per-user residual counts;
//   - per user, the events whose pair arc carries flow, ascending — the
//     reverse arcs a settled user relaxes.
//
// Node numbering matches the generic Graph layout of the same network
// (source 0, event v at 1+v, user u at 1+nv+u, sink nv+nu+1), so
// potentials read with Potentials index the same way in both.
//
// Every augmenting path carries one unit (pair arcs have capacity 1), so
// each AugmentBelow call is one Dijkstra pass and one unit of flow.
type Bipartite struct {
	nv, nu     int
	cost       []float64 // cost[v*nu+u]: per-unit cost of pair arc v→u
	flow       []bool    // flow[v*nu+u]: the pair arc carries its unit
	capV, resV []int64   // capacity and residual capacity of source→event arcs
	capU, resU []int64   // capacity and residual capacity of user→sink arcs
	matched    []int32   // user u's flow events, ascending, in matched[u*nv : u*nv+nMatched[u]]
	nMatched   []int32

	pot  []float64 // node potentials
	dist []float64 // Dijkstra distances over reduced costs
	prev []int32   // predecessor node on the current shortest path
	heap []int32   // binary heap of nodes keyed by (dist, node)
	hpos []int32   // node's index in heap, -1 when absent

	totalFlow int64
	totalCost float64
}

var bipartitePool = sync.Pool{New: func() any { return new(Bipartite) }}

// AcquireBipartite returns an nv×nu network over pooled storage: zero
// capacities, no flow, zero potentials, and unspecified pair costs — the
// caller writes every CostRow before solving. Return the kernel with
// ReleaseBipartite once flows are read.
func AcquireBipartite(nv, nu int) *Bipartite {
	k := bipartitePool.Get().(*Bipartite)
	k.reset(nv, nu)
	return k
}

// ReleaseBipartite returns a kernel to the pool. The kernel must not be
// used afterwards. Every field a later solve reads is rewritten by reset or
// by the caller's cost rows, so nothing leaks between owners.
func ReleaseBipartite(k *Bipartite) { bipartitePool.Put(k) }

// reset re-targets the kernel at an nv×nu network with zero capacities, no
// flow and zero potentials, keeping allocated storage. Pair costs keep
// whatever the storage held; write every CostRow before solving.
func (k *Bipartite) reset(nv, nu int) {
	if nv <= 0 || nu <= 0 {
		panic(fmt.Sprintf("mincostflow: bipartite network needs events and users, got %d×%d", nv, nu))
	}
	k.nv, k.nu = nv, nu
	k.cost = resize(k.cost, nv*nu)
	k.flow = resize(k.flow, nv*nu)
	clear(k.flow)
	k.capV, k.resV = resize(k.capV, nv), resize(k.resV, nv)
	clear(k.capV)
	clear(k.resV)
	k.capU, k.resU = resize(k.capU, nu), resize(k.resU, nu)
	clear(k.capU)
	clear(k.resU)
	k.matched = resize(k.matched, nv*nu)
	k.nMatched = resize(k.nMatched, nu)
	clear(k.nMatched)
	n := nv + nu + 2
	k.pot = resize(k.pot, n)
	clear(k.pot)
	k.dist = resize(k.dist, n)
	k.prev = resize(k.prev, n)
	k.hpos = resize(k.hpos, n)
	k.heap = k.heap[:0]
	k.totalFlow, k.totalCost = 0, 0
}

func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// SetEventCap sets the capacity of the source→event arc. Set capacities
// before any flow is pushed.
func (k *Bipartite) SetEventCap(v int, c int64) { k.capV[v], k.resV[v] = c, c }

// SetUserCap sets the capacity of the user→sink arc. Set capacities before
// any flow is pushed.
func (k *Bipartite) SetUserCap(u int, c int64) { k.capU[u], k.resU[u] = c, c }

// CostRow returns event v's pair costs, indexed by user, for the caller to
// fill. Costs must be finite.
func (k *Bipartite) CostRow(v int) []float64 { return k.cost[v*k.nu : (v+1)*k.nu] }

// Flow reports whether pair arc v→u carries its unit of flow.
func (k *Bipartite) Flow(v, u int) bool { return k.flow[v*k.nu+u] }

// TotalFlow returns the amount of flow from source to sink.
func (k *Bipartite) TotalFlow() int64 { return k.totalFlow }

// TotalCost returns the cost of the flow pushed so far.
func (k *Bipartite) TotalCost() float64 { return k.totalCost }

// Potentials copies the node potentials into out (grown as needed) and
// returns it. Feed it to a later WarmStart on a related network.
func (k *Bipartite) Potentials(out []float64) []float64 {
	out = resize(out, len(k.pot))
	copy(out, k.pot)
	return out
}

func (k *Bipartite) sink() int32 { return int32(k.nv + k.nu + 1) }

// AugmentBelow finds a shortest augmenting path and pushes one unit along
// it when the path's per-unit cost is strictly below costBound. It returns
// the path cost, and ok = false (nothing pushed) when the sink is
// unreachable (cost 0) or the path costs costBound or more. Successive
// calls yield non-decreasing costs, and after each push the flow is a
// minimum-cost flow of amount TotalFlow(), so a false return means no
// further unit can beat the bound either.
func (k *Bipartite) AugmentBelow(costBound float64) (unitCost float64, ok bool) {
	t := k.sink()
	if !k.dijkstra(0, t) {
		return 0, false
	}
	unitCost = k.dist[t] + k.pot[t] - k.pot[0]
	if unitCost >= costBound {
		return unitCost, false
	}
	k.settle(t)
	k.pushPath(0, t)
	k.totalFlow++
	k.totalCost += unitCost
	return unitCost, true
}

// settle folds the last Dijkstra pass into the potentials:
// pot += min(dist, dist[dst]). Nodes settled before dst get their exact
// distance; every other node, reached or not, gets dist[dst]. Each
// residual arc's reduced cost stays non-negative: an arc out of a settled
// node was relaxed, so dist[to] ≤ dist[from] + rc; an arc into a settled
// node from an unsettled one gains dist[dst] − dist[to] ≥ 0; arcs between
// unsettled nodes shift both ends by the same amount. Path arcs end with
// reduced cost zero, so their reversals stay valid after the push.
func (k *Bipartite) settle(dst int32) {
	dt := k.dist[dst]
	for i, d := range k.dist {
		if d < dt {
			k.pot[i] += d
		} else {
			k.pot[i] += dt
		}
	}
}

// pushPath moves one unit along the recorded shortest path from src to
// dst.
func (k *Bipartite) pushPath(src, dst int32) {
	for x := dst; x != src; {
		p := k.prev[x]
		k.push(p, x)
		x = p
	}
}

// push moves one unit along residual arc from → to: forward arcs lose
// residual capacity, reversed arcs give flow back.
func (k *Bipartite) push(from, to int32) {
	nv := int32(k.nv)
	t := k.sink()
	switch {
	case from == 0: // source → event
		k.resV[to-1]--
	case to == 0: // event → source
		k.resV[from-1]++
	case to == t: // user → sink
		k.resU[from-1-nv]--
	case from == t: // sink → user
		k.resU[to-1-nv]++
	case from <= nv: // event → user: the pair takes its unit
		v, u := from-1, to-1-nv
		k.flow[int(v)*k.nu+int(u)] = true
		k.addMatched(u, v)
	default: // user → event: the pair gives its unit back
		v, u := to-1, from-1-nv
		k.flow[int(v)*k.nu+int(u)] = false
		k.removeMatched(u, v)
	}
}

// addMatched inserts v into user u's ascending flow-event list.
func (k *Bipartite) addMatched(u, v int32) {
	n := k.nMatched[u]
	list := k.matched[int(u)*k.nv : int(u)*k.nv+int(n)+1]
	i := int(n)
	for i > 0 && list[i-1] > v {
		list[i] = list[i-1]
		i--
	}
	list[i] = v
	k.nMatched[u] = n + 1
}

// removeMatched deletes v from user u's flow-event list.
func (k *Bipartite) removeMatched(u, v int32) {
	n := int(k.nMatched[u])
	list := k.matched[int(u)*k.nv : int(u)*k.nv+n]
	for i, w := range list {
		if w == v {
			copy(list[i:], list[i+1:])
			k.nMatched[u] = int32(n - 1)
			return
		}
	}
	panic("mincostflow: flow pair missing from its user's list")
}

// dijkstra computes reduced-cost shortest paths from src over the residual
// network, stopping as soon as dst settles. It fills dist (exact for nodes
// settled before dst, an upper bound or +Inf elsewhere) and prev, and
// reports whether dst is reachable. Among equal distances the lowest node
// index settles first.
func (k *Bipartite) dijkstra(src, dst int32) bool {
	nv, nu := k.nv, k.nu
	t := k.sink()
	dist, pot, prev := k.dist, k.pot, k.prev
	for i := range dist {
		dist[i] = math.MaxFloat64
		k.hpos[i] = -1
	}
	k.heap = k.heap[:0]
	dist[src] = 0
	k.heapFix(src)
	// Users' slices of the node arrays, so the event-row loop indexes by u.
	userPot := pot[1+nv : 1+nv+nu]
	userDist := dist[1+nv : 1+nv+nu]
	userPrev := prev[1+nv : 1+nv+nu]
	for len(k.heap) > 0 {
		x := k.heapPop()
		if x == dst {
			return true
		}
		d := dist[x]
		switch {
		case x == 0: // source: arcs to events with residual capacity
			for v, r := range k.resV {
				if r > 0 {
					k.relax(x, int32(1+v), d, 0)
				}
			}
		case x == t: // sink: reversed arcs to users carrying flow
			for u, r := range k.resU {
				if r < k.capU[u] {
					k.relax(x, int32(1+nv+u), d, 0)
				}
			}
		case int(x) <= nv: // event: its row of pair arcs, then back to the source
			v := int(x) - 1
			row := k.cost[v*nu : (v+1)*nu]
			flow := k.flow[v*nu : (v+1)*nu]
			pv := pot[x]
			for u, c := range row {
				if flow[u] {
					continue
				}
				rc := c + pv - userPot[u]
				if rc < 0 {
					// Floating-point drift can push a reduced cost an
					// epsilon below zero; clamp so Dijkstra's invariant holds.
					rc = 0
				}
				if nd := d + rc; nd < userDist[u] {
					userDist[u] = nd
					userPrev[u] = x
					k.heapFix(int32(1 + nv + u))
				}
			}
			if k.resV[v] < k.capV[v] {
				k.relax(x, 0, d, 0)
			}
		default: // user: reversed pair arcs to its flow events, then the sink
			u := int(x) - 1 - nv
			for _, v := range k.matched[u*nv : u*nv+int(k.nMatched[u])] {
				k.relax(x, 1+v, d, -k.cost[int(v)*nu+u])
			}
			if k.resU[u] > 0 {
				k.relax(x, t, d, 0)
			}
		}
	}
	return false
}

// relax offers dist[x] + reducedCost(x → y) as y's tentative distance.
func (k *Bipartite) relax(x, y int32, d, cost float64) {
	rc := cost + k.pot[x] - k.pot[y]
	if rc < 0 {
		rc = 0
	}
	if nd := d + rc; nd < k.dist[y] {
		k.dist[y] = nd
		k.prev[y] = x
		k.heapFix(y)
	}
}

// heapLess orders heap nodes by distance, then by node index.
func (k *Bipartite) heapLess(a, b int32) bool {
	da, db := k.dist[a], k.dist[b]
	return da < db || (da == db && a < b)
}

// heapFix inserts x or restores heap order after its distance decreased.
func (k *Bipartite) heapFix(x int32) {
	i := k.hpos[x]
	if i < 0 {
		i = int32(len(k.heap))
		k.heap = append(k.heap, x)
	}
	for i > 0 {
		p := (i - 1) / 2
		y := k.heap[p]
		if !k.heapLess(x, y) {
			break
		}
		k.heap[i] = y
		k.hpos[y] = i
		i = p
	}
	k.heap[i] = x
	k.hpos[x] = i
}

// heapPop removes and returns the minimum node.
func (k *Bipartite) heapPop() int32 {
	h := k.heap
	top := h[0]
	k.hpos[top] = -1
	last := h[len(h)-1]
	h = h[:len(h)-1]
	k.heap = h
	if len(h) == 0 {
		return top
	}
	i, n := int32(0), int32(len(h))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && k.heapLess(h[r], h[c]) {
			c = r
		}
		if !k.heapLess(h[c], last) {
			break
		}
		h[i] = h[c]
		k.hpos[h[i]] = i
		i = c
	}
	h[i] = last
	k.hpos[last] = i
	return top
}
