// Package mincostflow implements minimum-cost flow by successive shortest
// paths (SSP): a kernel specialised to the GEACC reduction's bipartite
// network, which production uses, and a generic solver on arbitrary
// networks, which tests use as the reference.
//
// MinCostFlow-GEACC (Algorithm 1 of the paper) reduces the conflict-free
// GEACC instance to min-cost flow and computes minimum-cost flows of every
// amount Δ ∈ [Δmin, Δmax]. SSP — the variant the paper (citing SIGMOD'08)
// recommends for large-scale many-to-many matching with real-valued costs —
// runs Dijkstra over reduced costs and node potentials. Because it augments
// along shortest paths, the flow after the k-th unit of augmentation is
// itself a minimum-cost flow of amount k, so a single run yields the whole
// Δ-sweep.
//
// # The bipartite kernel
//
// Bipartite holds the network source → events → users → sink, with a unit
// pair arc from every event to every user, as flat arrays: pair costs in
// one row-major event×user []float64, pair flows in a parallel []bool,
// source and sink arcs as per-event and per-user residual counts, and per
// user the ascending list of events whose pair arc carries flow. Storage
// is pooled (AcquireBipartite / ReleaseBipartite). The caller fills
// capacities (SetEventCap, SetUserCap) and every cost row (CostRow), then
// drives AugmentBelow(bound): one shortest augmenting path, one unit, pushed
// only while its cost stays below bound. internal/core's Δ-sweep stops at
// the first path costing 1 or more, and polls for cancellation between
// calls.
//
// Its Dijkstra relaxes a settled event's whole row in a tight loop over
// users, a settled user only along its sink arc and its reversed pair arcs
// to flow events, and stops as soon as the sink settles. Among equal
// distances the lowest node index settles first (node numbering: source 0,
// event v at 1+v, user u at 1+nv+u, sink nv+nu+1 — the layout of the
// generic network of the same instance).
//
// Stopping early leaves unsettled nodes with tentative distances, so the
// potentials are updated as pot += min(dist, dist[t]). Every residual
// reduced cost stays non-negative: an arc out of a settled node was
// relaxed, so its head's distance is at most the tail's plus the reduced
// cost, and min only lowers the head's increment; an arc from an unsettled
// node into a settled one gains dist[t] − dist[head] ≥ 0; an arc between
// unsettled nodes shifts both ends by dist[t]. Arcs on the augmenting path
// end with reduced cost zero, so their reversals are valid too.
//
// Warm starts (warm.go) re-solve a slightly changed network from the
// previous solve's flow and potentials: Restore, WarmStart (negative-cycle
// cancellation plus seeded potential repair), RetreatAbove, ClearFlow.
//
// # The generic solver
//
// Build a network with NewGraph and AddArc (arcs are stored as
// forward/residual twins; AddArc returns an ArcID whose post-solve flow is
// read back with Graph.Flow). A Solver is bound to one source/sink pair by
// NewSolver and mutates the graph's residual capacities. It offers
// Solver.MinCostFlow(target), Solver.Augment(maxUnits) and
// Solver.AugmentBelow(maxUnits, bound) over a full Dijkstra per
// augmentation. Costs may be negative as long as the graph admits no
// negative cycle: NewSolver runs one Bellman–Ford pass to compute valid
// initial potentials when a negative-cost arc is present.
//
// No production path runs the generic solver. It and the cycle-canceling
// solver (cyclecancel.go, the §III.A algorithm-choice ablation) are the
// independent references the kernel's differential tests and fuzz target
// compare against.
package mincostflow
