package partition

import (
	"sort"

	"github.com/ebsnlab/geacc/internal/core"
)

// repairBoundary re-adds value lost to the cut: strict-improvement
// local-search moves over the component instance, restricted to cut pairs
// (the only pairs a shard solve could not see). Three move kinds, mirroring
// core's local search but scoped to the boundary:
//
//   - add: the cut pair fits both residual capacities and conflicts.
//   - replace-user-side: the user is full (or conflicted on exactly one
//     event); swap out their weakest strictly-worse pair.
//   - replace-event-side: the event is full; swap out its weakest
//     strictly-worse pair.
//
// Every applied move strictly increases MaxSum, so the pass terminates;
// sweeps run in deterministic order (similarity desc, then ids), at most
// repairRounds times, stopping early when a sweep changes nothing. Returns the
// repaired matching (the input matching if no move applied), the move
// count, and the total MaxSum gain.
func repairBoundary(in *core.Instance, m *core.Matching, cuts []cutPair) (*core.Matching, int, float64) {
	if len(cuts) == 0 {
		return m, 0, 0
	}
	ordered := append([]cutPair(nil), cuts...)
	sortCuts(ordered)
	ed := newEditState(in, m)
	moves := 0
	gain := 0.0
	for r := 0; r < repairRounds; r++ {
		changed := false
		for _, cp := range ordered {
			if g, ok := ed.tryImprove(cp.v, cp.u, cp.sim); ok {
				moves++
				gain += g
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	if moves == 0 {
		return m, 0, 0
	}
	return ed.matching(), moves, gain
}

// sortCuts orders by similarity desc, then (v, u) asc — the deterministic
// sweep order of the repair pass.
func sortCuts(cuts []cutPair) {
	sort.Slice(cuts, func(i, j int) bool {
		a, b := cuts[i], cuts[j]
		if a.sim != b.sim {
			return a.sim > b.sim
		}
		if a.v != b.v {
			return a.v < b.v
		}
		return a.u < b.u
	})
}

// editState is a mutable matching under repair: residual loads plus
// per-node assignment lists kept in sync through adds and removals.
type editState struct {
	in      *core.Instance
	evLoad  []int
	usLoad  []int
	byUser  [][]core.Assignment
	byEvent [][]core.Assignment
}

func newEditState(in *core.Instance, m *core.Matching) *editState {
	ed := &editState{
		in:      in,
		evLoad:  make([]int, in.NumEvents()),
		usLoad:  make([]int, in.NumUsers()),
		byUser:  make([][]core.Assignment, in.NumUsers()),
		byEvent: make([][]core.Assignment, in.NumEvents()),
	}
	for _, p := range m.Pairs() {
		ed.add(p)
	}
	return ed
}

func (ed *editState) add(p core.Assignment) {
	ed.evLoad[p.V]++
	ed.usLoad[p.U]++
	ed.byUser[p.U] = append(ed.byUser[p.U], p)
	ed.byEvent[p.V] = append(ed.byEvent[p.V], p)
}

func (ed *editState) remove(p core.Assignment) {
	ed.evLoad[p.V]--
	ed.usLoad[p.U]--
	ed.byUser[p.U] = dropPair(ed.byUser[p.U], p)
	ed.byEvent[p.V] = dropPair(ed.byEvent[p.V], p)
}

func dropPair(list []core.Assignment, p core.Assignment) []core.Assignment {
	for i := range list {
		if list[i].V == p.V && list[i].U == p.U {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}

// tryImprove attempts to bring cut pair (v, u, s) into the matching with a
// strict MaxSum gain; returns the gain and whether a move applied.
func (ed *editState) tryImprove(v, u int, s float64) (float64, bool) {
	for _, p := range ed.byUser[u] {
		if p.V == v {
			return 0, false // already matched (by an earlier repair move)
		}
	}
	capV := ed.in.Events[v].Cap
	capU := ed.in.Users[u].Cap

	// Conflicts of v against u's current events.
	conflicted := -1
	for _, p := range ed.byUser[u] {
		if ed.in.Conflicting(v, p.V) {
			if conflicted >= 0 {
				return 0, false // two conflicting events: no single swap helps
			}
			conflicted = p.V
		}
	}
	if conflicted >= 0 {
		// Must displace exactly the conflicting pair; worth it only if
		// strictly weaker, and v needs residual capacity of its own.
		if ed.evLoad[v] >= capV {
			return 0, false
		}
		old, ok := ed.pairOf(u, conflicted)
		if !ok || old.Sim >= s {
			return 0, false
		}
		ed.remove(old)
		ed.add(core.Assignment{V: v, U: u, Sim: s})
		return s - old.Sim, true
	}

	switch {
	case ed.evLoad[v] < capV && ed.usLoad[u] < capU:
		ed.add(core.Assignment{V: v, U: u, Sim: s})
		return s, true
	case ed.evLoad[v] < capV:
		// User full: displace their weakest strictly-worse pair.
		old, ok := weakest(ed.byUser[u], s)
		if !ok {
			return 0, false
		}
		ed.remove(old)
		ed.add(core.Assignment{V: v, U: u, Sim: s})
		return s - old.Sim, true
	case ed.usLoad[u] < capU:
		// Event full: displace its weakest strictly-worse pair.
		old, ok := weakest(ed.byEvent[v], s)
		if !ok {
			return 0, false
		}
		ed.remove(old)
		ed.add(core.Assignment{V: v, U: u, Sim: s})
		return s - old.Sim, true
	}
	return 0, false
}

func (ed *editState) pairOf(u, v int) (core.Assignment, bool) {
	for _, p := range ed.byUser[u] {
		if p.V == v {
			return p, true
		}
	}
	return core.Assignment{}, false
}

// weakest returns the minimum-similarity assignment strictly below s, ties
// broken by (V, U) asc for determinism.
func weakest(list []core.Assignment, s float64) (core.Assignment, bool) {
	best := core.Assignment{}
	found := false
	for _, p := range list {
		if p.Sim >= s {
			continue
		}
		if !found || p.Sim < best.Sim ||
			(p.Sim == best.Sim && (p.V < best.V || (p.V == best.V && p.U < best.U))) {
			best = p
			found = true
		}
	}
	return best, found
}

// matching rebuilds a core.Matching from the edited state in canonical
// (V, U) order, so the repaired result is deterministic regardless of the
// move sequence's internal list orders.
func (ed *editState) matching() *core.Matching {
	var all []core.Assignment
	for _, list := range ed.byUser {
		all = append(all, list...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].V != all[j].V {
			return all[i].V < all[j].V
		}
		return all[i].U < all[j].U
	})
	out := core.NewMatching()
	for _, p := range all {
		out.Add(p.V, p.U, p.Sim)
	}
	return out
}
