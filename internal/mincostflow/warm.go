package mincostflow

// Warm-started SSP on the bipartite kernel. A dirty-component rebalance
// re-solves a network that differs from the previous solve by a handful of
// entities. Instead of starting from zero flow and zero potentials, the
// caller loads the (slightly changed) network, force-restores the surviving
// flow units with Restore, and calls WarmStart: it repairs optimality (the
// delta may have created negative-cost residual cycles through the
// restored flow), recovers valid node potentials seeded from the previous
// solve, and leaves the kernel ready for the usual AugmentBelow loop —
// which now only has the delta's marginal units left to push.
//
// RetreatAbove is the reverse move: when a delta removed capacity or made
// restored units unprofitable under the caller's stopping rule, it pops
// single units back from sink to source along cheapest residual paths.

// Restore forces one unit of flow along source → v → u → sink when all
// three arcs have residual capacity, reporting whether it did. It bypasses
// path search and may leave the flow non-optimal until WarmStart repairs
// it.
func (k *Bipartite) Restore(v, u int) bool {
	if k.resV[v] <= 0 || k.resU[u] <= 0 || k.flow[v*k.nu+u] {
		return false
	}
	k.resV[v]--
	k.resU[u]--
	k.flow[v*k.nu+u] = true
	k.addMatched(int32(u), int32(v))
	return true
}

// ClearFlow removes all flow and zeroes potentials and totals: the kernel
// is back in its just-loaded state. It is the cold-fallback escape hatch
// when a warm start cannot be repaired.
func (k *Bipartite) ClearFlow() {
	clear(k.flow)
	clear(k.nMatched)
	copy(k.resV, k.capV)
	copy(k.resU, k.capU)
	clear(k.pot)
	k.totalFlow, k.totalCost = 0, 0
}

// WarmStats reports what a WarmStart did.
type WarmStats struct {
	RestoredFlow   int64 // flow units found on the network at start
	CyclesCanceled int   // negative residual cycles repaired
	OK             bool  // false: caller must ClearFlow and go cold
}

// WarmStart prepares the kernel for an SSP run on a network that already
// carries flow (restored via Restore). It
//
//  1. cancels any negative-cost residual cycles the restored flow forms
//     with the delta's new arcs, re-establishing that the current flow is a
//     minimum-cost flow of its amount;
//  2. recomputes TotalFlow/TotalCost from the pair flows; and
//  3. recovers valid node potentials (all residual reduced costs
//     non-negative) by Bellman–Ford relaxation seeded from prevPot — nodes
//     beyond len(prevPot) start at zero. Seeding from the previous solve's
//     potentials makes the relaxation converge in a pass or two on small
//     deltas instead of a cold pass over the whole network.
//
// On success the kernel behaves exactly as if AugmentBelow had pushed the
// restored flow itself: successive calls yield non-decreasing unit costs
// and the same optima. OK=false means repair did not converge
// (pathological float noise); the caller should ClearFlow and solve cold.
func (k *Bipartite) WarmStart(prevPot []float64) WarmStats {
	n := len(k.pot)
	st := WarmStats{}
	// Repair optimality: the restored flow plus delta arcs may admit
	// negative-cost residual cycles; cancel until none remain. The bound is
	// generous — a small delta creates at most a few — and overrunning it
	// signals a pathological instance better served cold.
	maxCancel := n + 64
	for st.CyclesCanceled < maxCancel && k.cancelNegativeCycle() {
		st.CyclesCanceled++
	}
	if st.CyclesCanceled >= maxCancel {
		return st // OK=false: cancelation did not converge
	}

	k.totalFlow, k.totalCost = 0, 0
	for v, c := range k.capV {
		k.totalFlow += c - k.resV[v]
	}
	for i, f := range k.flow {
		if f {
			k.totalCost += k.cost[i]
		}
	}
	st.RestoredFlow = k.totalFlow

	// Recover valid potentials: relax pot[w] <= pot[v] + cost(v,w) over
	// every residual arc, seeded from the previous solve's potentials.
	// Absent negative cycles (just canceled) this is a difference-constraint
	// system; relaxation converges in at most n passes, and with a good
	// seed typically one or two.
	for i := range k.pot {
		if i < len(prevPot) {
			k.pot[i] = prevPot[i]
		} else {
			k.pot[i] = 0
		}
	}
	for iter := 0; iter < n+1; iter++ {
		if k.relaxResidual(k.pot, 0) < 0 {
			st.OK = true
			break
		}
	}
	return st
}

// cancelNegativeCycle runs Bellman–Ford over the residual network from a
// virtual source joined to every node and, if a negative-cost cycle
// exists, pushes one unit around it (every negative cycle holds a
// unit-capacity pair arc). A tiny epsilon keeps floating-point noise from
// canceling "cycles" of cost ~0 forever.
func (k *Bipartite) cancelNegativeCycle() bool {
	const eps = 1e-12
	n := len(k.dist)
	clear(k.dist)
	for i := range k.prev {
		k.prev[i] = -1
	}
	last := int32(-1)
	for iter := 0; iter < n; iter++ {
		if last = k.relaxResidual(k.dist, eps); last < 0 {
			return false
		}
	}
	// A relaxation happened on the n-th pass: walk predecessors n times to
	// land inside the cycle, then push around it.
	x := last
	for i := 0; i < n; i++ {
		x = k.prev[x]
	}
	for w := x; ; {
		p := k.prev[w]
		k.push(p, w)
		if w = p; w == x {
			return true
		}
	}
}

// relaxResidual makes one Bellman–Ford pass over every residual arc,
// lowering d[to] to d[from] + cost whenever that beats it by more than eps
// and recording the predecessor in prev. It returns the last node lowered,
// or -1 when the pass changed nothing.
func (k *Bipartite) relaxResidual(d []float64, eps float64) int32 {
	nv, nu := k.nv, k.nu
	t := k.sink()
	last := int32(-1)
	relax := func(from, to int32, cost float64) {
		if nd := d[from] + cost; nd < d[to]-eps {
			d[to] = nd
			k.prev[to] = from
			last = to
		}
	}
	for v := 0; v < nv; v++ {
		x := int32(1 + v)
		if k.resV[v] > 0 {
			relax(0, x, 0)
		}
		if k.resV[v] < k.capV[v] {
			relax(x, 0, 0)
		}
		for u, c := range k.cost[v*nu : (v+1)*nu] {
			y := int32(1 + nv + u)
			if k.flow[v*nu+u] {
				relax(y, x, -c)
			} else {
				relax(x, y, c)
			}
		}
	}
	for u := 0; u < nu; u++ {
		y := int32(1 + nv + u)
		if k.resU[u] > 0 {
			relax(y, t, 0)
		}
		if k.resU[u] < k.capU[u] {
			relax(t, y, 0)
		}
	}
	return last
}

// RetreatAbove pops one unit of flow back from sink to source along the
// cheapest residual sink→source path when undoing that unit recovers at
// least costBound — i.e. the marginal unit currently in the flow costs
// costBound or more and would never have been pushed by
// AugmentBelow(costBound) on a cold run. ok=false means no unit qualifies
// (or no flow remains) and the retreat phase is done.
//
// Requires valid potentials (after WarmStart or earlier augmentations);
// like AugmentBelow it updates potentials so later reduced costs stay
// non-negative.
func (k *Bipartite) RetreatAbove(costBound float64) (unitCost float64, ok bool) {
	t := k.sink()
	if k.totalFlow <= 0 || !k.dijkstra(t, 0) {
		return 0, false
	}
	// True cost of sending one unit t→s; undoing a forward unit "refunds"
	// -reverseCost, so retreat while reverseCost <= -costBound.
	reverseCost := k.dist[0] + k.pot[0] - k.pot[t]
	if reverseCost > -costBound {
		return reverseCost, false
	}
	k.settle(0)
	k.pushPath(t, 0)
	k.totalFlow--
	k.totalCost += reverseCost
	return reverseCost, true
}
