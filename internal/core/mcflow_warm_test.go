package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/sim"
)

// deltaUniverse is a pool of entities with immutable attrs (like a
// long-lived arranger instance) from which component sub-instances are
// drawn; tests mutate membership and capacities to simulate delta streams.
type deltaUniverse struct {
	d          int
	eventAttrs []sim.Vector
	userAttrs  []sim.Vector
	eventCaps  []int
	userCaps   []int
	cf         *conflict.Graph // over the full event pool
	simFunc    sim.Func
}

func newDeltaUniverse(rng *rand.Rand, ne, nuPool, d int) *deltaUniverse {
	const maxT = 100.0
	u := &deltaUniverse{d: d, simFunc: sim.Euclidean(d, maxT)}
	for i := 0; i < ne; i++ {
		u.eventAttrs = append(u.eventAttrs, randVec(rng, d, maxT))
		u.eventCaps = append(u.eventCaps, 1+rng.Intn(3))
	}
	for i := 0; i < nuPool; i++ {
		u.userAttrs = append(u.userAttrs, randVec(rng, d, maxT))
		u.userCaps = append(u.userCaps, 1+rng.Intn(3))
	}
	u.cf = conflict.Random(rng, ne, 0.2)
	return u
}

// sub materializes the component sub-instance for the given member ids.
func (uni *deltaUniverse) sub(events, users []int) *Instance {
	evs := make([]Event, len(events))
	for i, e := range events {
		evs[i] = Event{Attrs: uni.eventAttrs[e], Cap: uni.eventCaps[e]}
	}
	usrs := make([]User, len(users))
	for i, id := range users {
		usrs[i] = User{Attrs: uni.userAttrs[id], Cap: uni.userCaps[id]}
	}
	var pairs [][2]int
	for i, a := range events {
		for j, b := range events[i+1:] {
			if uni.cf.Conflicting(a, b) {
				pairs = append(pairs, [2]int{i, i + 1 + j})
			}
		}
	}
	in, err := NewInstance(evs, usrs, conflict.FromPairs(len(events), pairs), uni.simFunc)
	if err != nil {
		panic(err)
	}
	return in
}

// TestWarmFlowMatchesColdAcrossDeltaStreams is the tentpole property: a
// warm-started dirty-component solve must be bit-exact vs the cold path —
// same Delta, same RelaxedMaxSum, same final matching — across long random
// delta streams (entity joins, leaves, and capacity changes).
func TestWarmFlowMatchesColdAcrossDeltaStreams(t *testing.T) {
	const streams, steps = 10, 25 // 250 delta solves total
	for s := 0; s < streams; s++ {
		s := s
		t.Run(fmt.Sprintf("stream%d", s), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + s)))
			uni := newDeltaUniverse(rng, 16, 40, 4)
			wc := NewWarmCache(8)
			events := []int{0, 1, 2, 3}
			users := []int{0, 1, 2, 3, 4, 5, 6, 7}
			for step := 0; step < steps; step++ {
				in := uni.sub(events, users)
				cold, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
				if err != nil {
					t.Fatal(err)
				}
				warm, err := minCostFlowWarmCtx(context.Background(), in, events, users, wc)
				if err != nil {
					t.Fatal(err)
				}
				if warm.Delta != cold.Delta {
					t.Fatalf("step %d: warm Delta %d != cold %d", step, warm.Delta, cold.Delta)
				}
				if warm.RelaxedMaxSum != cold.RelaxedMaxSum {
					t.Fatalf("step %d: warm RelaxedMaxSum %v != cold %v", step, warm.RelaxedMaxSum, cold.RelaxedMaxSum)
				}
				if warm.Matching.MaxSum() != cold.Matching.MaxSum() {
					t.Fatalf("step %d: warm MaxSum %v != cold %v", step, warm.Matching.MaxSum(), cold.Matching.MaxSum())
				}
				wp, cp := warm.Matching.SortedPairs(), cold.Matching.SortedPairs()
				if len(wp) != len(cp) {
					t.Fatalf("step %d: warm %d pairs != cold %d", step, len(wp), len(cp))
				}
				for i := range wp {
					if wp[i] != cp[i] {
						t.Fatalf("step %d: pair %d differs: warm %+v cold %+v", step, i, wp[i], cp[i])
					}
				}
				mustValidate(t, in, warm.Matching, "mincostflow-warm")

				// Mutate the component for the next step.
				switch rng.Intn(5) {
				case 0: // event joins
					if next := pick(rng, len(uni.eventAttrs), events); next >= 0 {
						events = insertSorted(events, next)
					}
				case 1: // event leaves (tombstone-style: also exercised by cap 0 below)
					if len(events) > 2 {
						events = removeAt(events, rng.Intn(len(events)))
					}
				case 2: // user joins
					if next := pick(rng, len(uni.userAttrs), users); next >= 0 {
						users = insertSorted(users, next)
					}
				case 3: // user leaves
					if len(users) > 2 {
						users = removeAt(users, rng.Intn(len(users)))
					}
				case 4: // capacity change (0 simulates a canceled event kept as a tombstone)
					if rng.Intn(2) == 0 {
						uni.eventCaps[events[rng.Intn(len(events))]] = rng.Intn(4)
					} else {
						uni.userCaps[users[rng.Intn(len(users))]] = 1 + rng.Intn(3)
					}
				}
			}
		})
	}
}

// pick returns a pool id not already in members, or -1.
func pick(rng *rand.Rand, poolSize int, members []int) int {
	in := make(map[int]bool, len(members))
	for _, m := range members {
		in[m] = true
	}
	var free []int
	for i := 0; i < poolSize; i++ {
		if !in[i] {
			free = append(free, i)
		}
	}
	if len(free) == 0 {
		return -1
	}
	return free[rng.Intn(len(free))]
}

func insertSorted(s []int, x int) []int {
	s = append(s, x)
	for i := len(s) - 1; i > 0 && s[i] < s[i-1]; i-- {
		s[i], s[i-1] = s[i-1], s[i]
	}
	return s
}

func removeAt(s []int, i int) []int { return append(s[:i:i], s[i+1:]...) }

// TestWarmFlowSurvivesGarbageState pins the safety property: a stale or
// corrupt cached FlowState must never change the result, only (at worst)
// the speed. We plant states with wrong pairs and wild potentials and check
// warm output still equals cold.
func TestWarmFlowSurvivesGarbageState(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	uni := newDeltaUniverse(rng, 8, 16, 4)
	events := []int{0, 1, 2, 3, 4}
	users := []int{0, 1, 2, 3, 4, 5, 6, 7}
	in := uni.sub(events, users)
	cold, err := minCostFlowCtx(context.Background(), in, FlowOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Garbage within the state contract (rows keyed by ids are always
	// correct because the arranger never rebinds an id to new attrs — so
	// the state's event/user id lists point at unrelated pool ids here):
	// pairs referencing arbitrary live and dead entities, potentials far
	// from valid.
	sims := make([]float64, 3*4)
	for i := range sims {
		sims[i] = rng.Float64()
	}
	garbage := &FlowState{
		events: []int{99, 100, 101}, // none present in the component: no row reuse
		users:  []int{97, 98, 103, 104},
		sims:   sims,
		pot:    []float64{1000, -1000, 3, 0, 42, -7, 9, 9, 9},
		pairs:  [][2]int{{0, 1}, {2, 3}, {99, 98}, {0, 5}, {2, 1}, {4, 0}, {1, 1}},
	}
	wc := NewWarmCache(4)
	wc.put(componentAnchor(events), garbage)
	warm, err := minCostFlowWarmCtx(context.Background(), in, events, users, wc)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Matching.MaxSum() != cold.Matching.MaxSum() || warm.Delta != cold.Delta {
		t.Fatalf("garbage state changed result: warm (%v, %d) cold (%v, %d)",
			warm.Matching.MaxSum(), warm.Delta, cold.Matching.MaxSum(), cold.Delta)
	}
}

func TestWarmCacheEviction(t *testing.T) {
	wc := NewWarmCache(3)
	for i := 0; i < 10; i++ {
		wc.put(i, &FlowState{})
	}
	if wc.Len() != 3 {
		t.Fatalf("cache holds %d states, want 3", wc.Len())
	}
	// 7, 8, 9 are the survivors; touching 7 then inserting evicts 8 next.
	if wc.get(7) == nil {
		t.Fatal("expected anchor 7 resident")
	}
	wc.put(10, &FlowState{})
	if wc.get(8) != nil {
		t.Fatal("anchor 8 should have been evicted (LRU)")
	}
	if wc.get(7) == nil || wc.get(9) == nil || wc.get(10) == nil {
		t.Fatal("LRU kept the wrong anchors")
	}
}

// BenchmarkMcflowWarmDelta measures a 1-entity-delta re-solve with a warm
// cache vs the cold path on the same component shape; CI runs it as the
// warm-start smoke benchmark.
func BenchmarkMcflowWarmDelta(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	uni := newDeltaUniverse(rng, 30, 400, 8)
	events := make([]int, 30)
	for i := range events {
		events[i] = i
	}
	usersA := make([]int, 399)
	for i := range usersA {
		usersA[i] = i
	}
	usersB := append(append([]int(nil), usersA...), 399)
	inA, inB := uni.sub(events, usersA), uni.sub(events, usersB)

	b.Run("warm", func(b *testing.B) {
		wc := NewWarmCache(4)
		if _, err := MinCostFlowWarmCtx(context.Background(), inA, events, usersA, wc); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			in, us := inB, usersB
			if i%2 == 1 {
				in, us = inA, usersA
			}
			if _, err := MinCostFlowWarmCtx(context.Background(), in, events, us, wc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			in := inB
			if i%2 == 1 {
				in = inA
			}
			if _, err := MinCostFlowCtx(context.Background(), in, FlowOptions{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
