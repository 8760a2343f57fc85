package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/sim"
)

func TestNewInstanceValidation(t *testing.T) {
	f := sim.Euclidean(2, 10)
	ok := func(events []Event, users []User, cf *conflict.Graph) error {
		_, err := NewInstance(events, users, cf, f)
		return err
	}
	if err := ok([]Event{{Attrs: sim.Vector{1, 2}, Cap: 1}}, []User{{Attrs: sim.Vector{3, 4}, Cap: 1}}, nil); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
	if err := ok([]Event{{Attrs: sim.Vector{1}, Cap: 1}}, []User{{Attrs: sim.Vector{3, 4}, Cap: 1}}, nil); err == nil {
		t.Error("dimension mismatch accepted")
	}
	if err := ok([]Event{{Attrs: sim.Vector{1, 2}, Cap: -1}}, nil, nil); err == nil {
		t.Error("negative event capacity accepted")
	}
	if err := ok(nil, []User{{Attrs: sim.Vector{1, 2}, Cap: -3}}, nil); err == nil {
		t.Error("negative user capacity accepted")
	}
	if err := ok([]Event{{Attrs: sim.Vector{1, 2}, Cap: 1}}, nil, conflict.New(5)); err == nil {
		t.Error("conflict graph size mismatch accepted")
	}
	if _, err := NewInstance(nil, nil, nil, nil); err == nil {
		t.Error("nil similarity function accepted")
	}
}

func TestNewMatrixInstanceValidation(t *testing.T) {
	events := []Event{{Cap: 1}, {Cap: 2}}
	users := []User{{Cap: 1}}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{0.5}, {0.7}}); err != nil {
		t.Errorf("valid matrix instance rejected: %v", err)
	}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{0.5}}); err == nil {
		t.Error("wrong row count accepted")
	}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{0.5, 0.6}, {0.7, 0.8}}); err == nil {
		t.Error("wrong column count accepted")
	}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{1.5}, {0.7}}); err == nil {
		t.Error("similarity > 1 accepted")
	}
	if _, err := NewMatrixInstance(events, users, nil, [][]float64{{-0.1}, {0.7}}); err == nil {
		t.Error("negative similarity accepted")
	}
}

func TestInstanceAccessors(t *testing.T) {
	f := sim.Euclidean(1, 10)
	in, err := NewInstance(
		[]Event{{Attrs: sim.Vector{0}, Cap: 5}, {Attrs: sim.Vector{10}, Cap: 2}},
		[]User{{Attrs: sim.Vector{0}, Cap: 3}, {Attrs: sim.Vector{5}, Cap: 4}, {Attrs: sim.Vector{10}, Cap: 1}},
		conflict.FromPairs(2, [][2]int{{0, 1}}),
		f,
	)
	if err != nil {
		t.Fatal(err)
	}
	if in.NumEvents() != 2 || in.NumUsers() != 3 {
		t.Fatal("wrong sizes")
	}
	if in.Similarity(0, 0) != 1 {
		t.Errorf("Similarity(0,0) = %v", in.Similarity(0, 0))
	}
	if in.Similarity(0, 2) != 0 {
		t.Errorf("Similarity(0,2) = %v", in.Similarity(0, 2))
	}
	if !in.Conflicting(0, 1) || in.Conflicting(1, 1) {
		t.Error("Conflicting wrong")
	}
	if in.MaxUserCap() != 4 || in.MaxEventCap() != 5 {
		t.Error("capacity maxima wrong")
	}
	sv, su := in.CapSums()
	if sv != 7 || su != 8 {
		t.Errorf("CapSums = %d, %d", sv, su)
	}
	if len(in.EventAttrs()) != 2 || len(in.UserAttrs()) != 3 {
		t.Error("attribute views wrong")
	}
}

func TestConflictingWithNilGraph(t *testing.T) {
	in, err := NewMatrixInstance([]Event{{Cap: 1}}, []User{{Cap: 1}}, nil, [][]float64{{0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if in.Conflicting(0, 0) {
		t.Error("nil conflict graph must mean no conflicts")
	}
}

func TestMatrixInstanceSimilarityLookup(t *testing.T) {
	in, err := NewMatrixInstance(
		[]Event{{Cap: 1}, {Cap: 1}},
		[]User{{Cap: 1}, {Cap: 1}},
		nil,
		[][]float64{{0.1, 0.2}, {0.3, 0.4}},
	)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 2; v++ {
		for u := 0; u < 2; u++ {
			want := [][]float64{{0.1, 0.2}, {0.3, 0.4}}[v][u]
			if got := in.Similarity(v, u); got != want {
				t.Errorf("Similarity(%d,%d) = %v, want %v", v, u, got, want)
			}
		}
	}
}

// TestRestrict: on random matrix and vector instances with conflicts, the
// restricted sub-instance carries every similarity bit-identically and
// keeps exactly the conflict edges with both ends inside the event list,
// inserted in parent order (each sub event's forward neighbors appear in
// the parent's adjacency order).
func TestRestrict(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		nv, nu := 2+rng.Intn(12), 1+rng.Intn(20)
		events := make([]Event, nv)
		users := make([]User, nu)
		for v := range events {
			events[v] = Event{Attrs: sim.Vector{rng.Float64() * 10, rng.Float64() * 10}, Cap: 1 + rng.Intn(4)}
		}
		for u := range users {
			users[u] = User{Attrs: sim.Vector{rng.Float64() * 10, rng.Float64() * 10}, Cap: 1 + rng.Intn(3)}
		}
		cf := conflict.Random(rng, nv, 0.4)
		matrix := make([][]float64, nv)
		for v := range matrix {
			matrix[v] = make([]float64, nu)
			for u := range matrix[v] {
				matrix[v][u] = rng.Float64()
			}
		}
		vec, err := NewInstance(events, users, cf, sim.Euclidean(2, 10))
		if err != nil {
			t.Fatal(err)
		}
		mat, err := NewMatrixInstance(events, users, cf, matrix)
		if err != nil {
			t.Fatal(err)
		}
		var evSel, usSel []int
		for v := 0; v < nv; v++ {
			if rng.Intn(3) > 0 {
				evSel = append(evSel, v)
			}
		}
		for u := 0; u < nu; u++ {
			if rng.Intn(3) > 0 {
				usSel = append(usSel, u)
			}
		}
		for _, in := range []*Instance{vec, mat} {
			sub, err := in.Restrict(evSel, usSel)
			if err != nil {
				t.Fatal(err)
			}
			if sub.NumEvents() != len(evSel) || sub.NumUsers() != len(usSel) {
				t.Fatalf("trial %d: sub is %dx%d, want %dx%d", trial, sub.NumEvents(), sub.NumUsers(), len(evSel), len(usSel))
			}
			row := make([]float64, len(usSel))
			for i, v := range evSel {
				if e := sub.Events[i]; e.Cap != in.Events[v].Cap || !slices.Equal(e.Attrs, in.Events[v].Attrs) {
					t.Fatalf("trial %d: event %d not copied", trial, v)
				}
				sub.SimilarityRow(i, row)
				for j, u := range usSel {
					want := math.Float64bits(in.Similarity(v, u))
					if math.Float64bits(sub.Similarity(i, j)) != want || math.Float64bits(row[j]) != want {
						t.Fatalf("trial %d: sim(%d,%d) not bit-identical to the parent's", trial, v, u)
					}
				}
			}
			edges := 0
			for i, v := range evSel {
				var want []int
				for _, w := range in.Conflicts.Neighbors(v) {
					if j, ok := slices.BinarySearch(evSel, w); ok && w > v {
						want = append(want, j)
					}
				}
				var got []int
				for _, j := range sub.Conflicts.Neighbors(i) {
					if j > i {
						got = append(got, j)
					}
				}
				if !slices.Equal(got, want) {
					t.Fatalf("trial %d: sub event %d forward conflicts %v, want %v", trial, i, got, want)
				}
				edges += len(want)
			}
			if sub.Conflicts.Edges() != edges {
				t.Fatalf("trial %d: sub has %d conflict edges, want %d", trial, sub.Conflicts.Edges(), edges)
			}
		}
	}
}
