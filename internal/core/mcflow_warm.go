package core

import (
	"context"
	"sync"
	"time"

	"github.com/ebsnlab/geacc/internal/mincostflow"
	"github.com/ebsnlab/geacc/internal/obs"
)

// Warm-started MinCostFlow-GEACC. A dirty-component rebalance re-solves a
// sub-instance that differs from the last solve of the same component by a
// handful of entities. The cold path rebuilds every arc from fresh
// similarity rows and re-pushes the whole flow from zero; the warm path
// keeps a FlowState per component — similarity rows, node potentials, and
// the flow support, all in parent-id space — and on the next solve
//
//   - reuses rows for surviving events (only arcs whose endpoints the delta
//     touched are re-derived; attrs are immutable and the kernels are
//     deterministic, so reused entries are bit-identical to recomputation),
//   - force-restores the surviving flow units onto the new network, and
//   - repairs optimality with the kernel's WarmStart + RetreatAbove instead
//     of re-running the full augmentation sweep.
//
// Every reuse step is guarded by id-membership and residual-capacity
// checks, so a stale or partial state degrades performance, never
// correctness; anything the warm repair cannot handle falls back cold
// (ClearFlow) on the same network. Row reuse additionally relies on
// one system invariant: an entity id is never rebound to different attrs
// (the arranger tombstones on remove/cancel and appends on add), so a
// stored (event id, user id) similarity is a permanent fact. The stopping rule is the cold
// one — keep a unit iff its marginal cost is < 1 — so Delta, the relaxed
// matching, MaxSum, and the final matching are bit-exact vs the cold path.

// FlowState is the reusable snapshot of one component's relaxed-optimum
// solve, keyed entirely by parent-instance entity ids so it survives
// component renumbering across decompositions.
type FlowState struct {
	events []int     // parent event ids, in sub-instance order
	users  []int     // parent user ids, in sub-instance order
	sims   []float64 // sims[i*len(users)+j] = sim(events[i], users[j])
	pot    []float64 // node potentials in the solve's node layout
	pairs  [][2]int  // (event, user) parent-id pairs carrying flow, sim-0 included
}

// WarmCache holds FlowStates for a long-lived instance's components, keyed
// by the component's anchor (its smallest parent event id — stable across
// renumbering; after a merge the anchor component's state still restores
// partially). Bounded, least-recently-used eviction.
type WarmCache struct {
	mu      sync.Mutex
	max     int
	entries map[int]*FlowState
	order   []int // LRU order, least recent first
}

// DefaultWarmCacheEntries bounds a WarmCache when the caller passes <= 0.
const DefaultWarmCacheEntries = 256

// NewWarmCache returns a WarmCache holding at most max states (<= 0 means
// DefaultWarmCacheEntries).
func NewWarmCache(max int) *WarmCache {
	if max <= 0 {
		max = DefaultWarmCacheEntries
	}
	return &WarmCache{max: max, entries: make(map[int]*FlowState)}
}

func (wc *WarmCache) get(anchor int) *FlowState {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	st := wc.entries[anchor]
	if st != nil {
		wc.touch(anchor)
	}
	return st
}

func (wc *WarmCache) put(anchor int, st *FlowState) {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	if _, ok := wc.entries[anchor]; ok {
		wc.entries[anchor] = st
		wc.touch(anchor)
		return
	}
	for len(wc.entries) >= wc.max && len(wc.order) > 0 {
		delete(wc.entries, wc.order[0])
		wc.order = wc.order[1:]
	}
	wc.entries[anchor] = st
	wc.order = append(wc.order, anchor)
}

// touch moves anchor to the most-recent end; wc.mu must be held.
func (wc *WarmCache) touch(anchor int) {
	for i, a := range wc.order {
		if a == anchor {
			wc.order = append(append(wc.order[:i:i], wc.order[i+1:]...), anchor)
			return
		}
	}
}

// Len returns the number of cached component states.
func (wc *WarmCache) Len() int {
	wc.mu.Lock()
	defer wc.mu.Unlock()
	return len(wc.entries)
}

// MinCostFlowWarmCtx runs MinCostFlow-GEACC on a component sub-instance,
// consulting and refreshing wc. events and users are the component's parent
// ids in sub-instance order (decomp.Component's Events/Users). A nil cache
// or an id-length mismatch degrades to the cold path. Results are bit-exact
// vs MinCostFlowCtx.
func MinCostFlowWarmCtx(ctx context.Context, in *Instance, events, users []int, wc *WarmCache) (*Matching, error) {
	start := time.Now()
	sp := obs.RecorderFrom(ctx).Start("solve/mincostflow-warm")
	sp.Annotate("events", int64(in.NumEvents()))
	sp.Annotate("users", int64(in.NumUsers()))
	res, err := minCostFlowWarmCtx(ctx, in, events, users, wc)
	sp.End()
	observeSolve("mincostflow", time.Since(start), err)
	if err != nil {
		return nil, err
	}
	return res.Matching, nil
}

func minCostFlowWarmCtx(ctx context.Context, in *Instance, events, users []int, wc *WarmCache) (*FlowResult, error) {
	if wc == nil || len(events) != in.NumEvents() || len(users) != in.NumUsers() || len(events) == 0 {
		return minCostFlowCtx(ctx, in, FlowOptions{})
	}
	mcflowWarmAttempts.Inc()
	anchor := componentAnchor(events)
	sp := obs.RecorderFrom(ctx).Start("mincostflow/relax")
	res, st, err := relaxedOptimumWarm(ctx, in, events, users, wc.get(anchor))
	sp.End()
	if err != nil {
		return nil, err
	}
	if st != nil {
		wc.put(anchor, st)
	}
	sp = obs.RecorderFrom(ctx).Start("mincostflow/resolve")
	res.Matching = resolveConflicts(in, res.Relaxed)
	sp.End()
	return res, nil
}

// componentAnchor is the smallest parent event id of a component.
func componentAnchor(events []int) int {
	anchor := events[0]
	for _, e := range events[1:] {
		if e < anchor {
			anchor = e
		}
	}
	return anchor
}

// usable reports whether the state's arrays agree with its id lists; a
// state that does not is ignored rather than trusted.
func (st *FlowState) usable() bool {
	ne, nu := len(st.events), len(st.users)
	return len(st.sims) == ne*nu && len(st.pot) == ne+nu+2
}

// relaxedOptimumWarm is relaxedOptimumCtx with state capture and optional
// warm start from a previous FlowState. It shares the cold path's network
// build, augmentation rule, and readback.
func relaxedOptimumWarm(ctx context.Context, in *Instance, events, users []int, prev *FlowState) (*FlowResult, *FlowState, error) {
	mcflowRuns.Inc()
	nv, nu := in.NumEvents(), in.NumUsers()
	res := &FlowResult{Relaxed: NewMatching()}
	if nv == 0 || nu == 0 {
		return res, nil, nil
	}
	if prev != nil && !prev.usable() {
		prev = nil
	}

	// Similarity rows, gathered from the previous state where the event
	// survived (bit-identical: attrs are immutable, kernels deterministic)
	// and batch-computed otherwise. The matrix is owned by the new
	// FlowState, so it is allocated fresh, not pooled.
	var oldEventRow, oldUserCol map[int]int
	if prev != nil {
		oldEventRow = make(map[int]int, len(prev.events))
		for i, e := range prev.events {
			oldEventRow[e] = i
		}
		oldUserCol = make(map[int]int, len(prev.users))
		for j, u := range prev.users {
			oldUserCol[u] = j
		}
	}
	sims := make([]float64, nv*nu)
	for v := 0; v < nv; v++ {
		row := sims[v*nu : (v+1)*nu]
		if ov, ok := oldEventRow[events[v]]; ok {
			onu := len(prev.users)
			oldRow := prev.sims[ov*onu : (ov+1)*onu]
			for u := range row {
				if oc, ok := oldUserCol[users[u]]; ok {
					row[u] = oldRow[oc]
				} else {
					row[u] = in.Similarity(v, u)
				}
			}
			continue
		}
		in.similarityRow(v, row)
	}
	k := loadFlowNetwork(in, sims)
	defer mincostflow.ReleaseBipartite(k)

	// Restore the previous flow support where both endpoints survived and
	// residual capacity allows (a delta may have shrunk caps).
	var restored int64
	if prev != nil {
		newEventIdx := make(map[int]int, nv)
		for v, e := range events {
			newEventIdx[e] = v
		}
		newUserIdx := make(map[int]int, nu)
		for u, id := range users {
			newUserIdx[id] = u
		}
		for _, p := range prev.pairs {
			v, okv := newEventIdx[p[0]]
			u, oku := newUserIdx[p[1]]
			if okv && oku && k.Restore(v, u) {
				restored++
			}
		}
	}
	if restored > 0 {
		ws := k.WarmStart(remapPotentials(prev, events, users, oldEventRow, oldUserCol))
		if !ws.OK {
			mcflowWarmColdFallbacks.Inc()
			k.ClearFlow()
		} else {
			mcflowWarmHits.Inc()
			mcflowWarmRestoredUnits.Add(ws.RestoredFlow)
			// Retreat: drop restored units whose marginal cost reached 1 —
			// units the cold sweep would never have pushed.
			for {
				if err := ctx.Err(); err != nil {
					return nil, nil, err
				}
				if _, ok := k.RetreatAbove(1); !ok {
					break
				}
			}
		}
	}

	if err := augmentRelaxed(ctx, k); err != nil {
		return nil, nil, err
	}
	readRelaxed(res, k, sims, nu)
	st := &FlowState{
		events: append([]int(nil), events...),
		users:  append([]int(nil), users...),
		sims:   sims,
		pot:    k.Potentials(nil),
	}
	for i := range sims {
		// The state keeps sim-0 flow pairs too: they carry real flow units
		// the restore phase must reproduce.
		if v, u := i/nu, i%nu; k.Flow(v, u) {
			st.pairs = append(st.pairs, [2]int{events[v], users[u]})
		}
	}
	return res, st, nil
}

// remapPotentials carries the previous solve's node potentials over to the
// new node layout: source and sink keep theirs, surviving events and users
// take theirs along, and new nodes start at zero.
func remapPotentials(prev *FlowState, events, users []int, oldEventRow, oldUserCol map[int]int) []float64 {
	nv, nu := len(events), len(users)
	onv, onu := len(prev.events), len(prev.users)
	pot := make([]float64, nv+nu+2)
	pot[0] = prev.pot[0]
	pot[nv+nu+1] = prev.pot[onv+onu+1]
	for v, e := range events {
		if ov, ok := oldEventRow[e]; ok {
			pot[1+v] = prev.pot[1+ov]
		}
	}
	for u, id := range users {
		if oc, ok := oldUserCol[id]; ok {
			pot[1+nv+u] = prev.pot[1+onv+oc]
		}
	}
	return pot
}
