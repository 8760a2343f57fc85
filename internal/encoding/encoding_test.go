package encoding

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/sim"
)

func vectorInstance(t *testing.T) *core.Instance {
	t.Helper()
	in, err := core.NewInstance(
		[]core.Event{
			{Attrs: sim.Vector{1, 2}, Cap: 3},
			{Attrs: sim.Vector{5, 6}, Cap: 1},
		},
		[]core.User{
			{Attrs: sim.Vector{1, 1}, Cap: 2},
			{Attrs: sim.Vector{9, 9}, Cap: 1},
			{Attrs: sim.Vector{4, 5}, Cap: 1},
		},
		conflict.FromPairs(2, [][2]int{{0, 1}}),
		sim.Euclidean(2, 10),
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func matrixInstance(t *testing.T) *core.Instance {
	t.Helper()
	in, err := core.NewMatrixInstance(
		[]core.Event{{Cap: 2}, {Cap: 1}},
		[]core.User{{Cap: 1}, {Cap: 2}},
		nil,
		[][]float64{{0.3, 0.9}, {0.2, 0.5}},
	)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestInstanceJSONRoundTripVector(t *testing.T) {
	in := vectorInstance(t)
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, in, SimEuclidean, 2, 10); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != 2 || got.NumUsers() != 3 {
		t.Fatal("sizes lost")
	}
	for v := 0; v < 2; v++ {
		for u := 0; u < 3; u++ {
			if got.Similarity(v, u) != in.Similarity(v, u) {
				t.Fatalf("similarity (%d,%d) changed", v, u)
			}
		}
	}
	if !got.Conflicting(0, 1) {
		t.Fatal("conflicts lost")
	}
	if got.Events[0].Cap != 3 || got.Users[2].Cap != 1 {
		t.Fatal("capacities lost")
	}
}

func TestInstanceJSONRoundTripMatrix(t *testing.T) {
	in := matrixInstance(t)
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, in, SimMatrix, 0, 0); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeInstance(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Similarity(0, 1) != 0.9 || got.Similarity(1, 0) != 0.2 {
		t.Fatal("matrix lost")
	}
	if got.Conflicts != nil && got.Conflicts.Edges() != 0 {
		t.Fatal("phantom conflicts")
	}
}

func TestInstanceJSONCosineAndManhattan(t *testing.T) {
	for _, kind := range []SimKind{SimCosine, SimManhattan} {
		in, err := core.NewInstance(
			[]core.Event{{Attrs: sim.Vector{1, 0}, Cap: 1}},
			[]core.User{{Attrs: sim.Vector{1, 1}, Cap: 1}},
			nil,
			sim.Cosine(), // placeholder; encoding carries the kind
		)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, in, kind, 2, 10); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := DecodeInstance(&buf); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

func TestEncodeInstanceErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeInstance(&buf, vectorInstance(t), SimMatrix, 0, 0); err == nil {
		t.Error("matrix kind on vector instance accepted")
	}
	if err := EncodeInstance(&buf, matrixInstance(t), SimEuclidean, 2, 10); err == nil {
		t.Error("function kind on matrix instance accepted")
	}
	if err := EncodeInstance(&buf, vectorInstance(t), SimEuclidean, 0, 10); err == nil {
		t.Error("missing dim accepted")
	}
}

func TestDecodeInstanceErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":       `{`,
		"unknown kind":   `{"events":[],"users":[],"sim":"hamming"}`,
		"unknown field":  `{"events":[],"users":[],"sim":"matrix","matrix":[],"bogus":1}`,
		"conflict range": `{"events":[{"cap":1}],"users":[{"cap":1}],"conflicts":[[0,5]],"sim":"matrix","matrix":[[0.5]]}`,
		"bad matrix":     `{"events":[{"cap":1}],"users":[{"cap":1}],"sim":"matrix","matrix":[[1.5]]}`,
	}
	for name, doc := range cases {
		if _, err := DecodeInstance(strings.NewReader(doc)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestMatchingJSONRoundTrip(t *testing.T) {
	m := core.NewMatching()
	m.Add(1, 2, 0.75)
	m.Add(0, 0, 0.5)
	var buf bytes.Buffer
	if err := EncodeMatching(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMatching(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 2 || got.MaxSum() != 1.25 {
		t.Fatalf("round trip lost pairs: %+v", got.SortedPairs())
	}
	if !got.Contains(1, 2) || !got.Contains(0, 0) {
		t.Fatal("pairs lost")
	}
}

func TestMatchingJSONEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := EncodeMatching(&buf, core.NewMatching()); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMatching(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != 0 {
		t.Fatal("phantom pairs")
	}
}

func TestDecodeMatchingRejectsDuplicates(t *testing.T) {
	doc := `{"pairs":[{"v":0,"u":0,"sim":0.5},{"v":0,"u":0,"sim":0.5}],"max_sum":1}`
	if _, err := DecodeMatching(strings.NewReader(doc)); err == nil {
		t.Error("duplicate pairs accepted")
	}
}

func TestMatchingCSVRoundTrip(t *testing.T) {
	m := core.NewMatching()
	m.Add(3, 1, 0.123456789)
	m.Add(0, 2, 0.5)
	var buf bytes.Buffer
	if err := WriteMatchingCSV(&buf, m); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.HasPrefix(text, "v,u,sim\n") {
		t.Fatalf("missing header: %q", text)
	}
	records, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 || records[1][0] != "0" || records[2][0] != "3" || records[2][1] != "1" {
		t.Fatalf("rows not sorted by (v, u): %q", records)
	}
	for i, want := range []float64{0.5, 0.123456789} {
		got, err := strconv.ParseFloat(records[i+1][2], 64)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("row %d sim %v != %v (float formatting must be lossless)", i+1, got, want)
		}
	}
}

func TestRandomInstanceRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		nv, nu, d := 1+rng.Intn(5), 1+rng.Intn(8), 1+rng.Intn(4)
		events := make([]core.Event, nv)
		for i := range events {
			events[i] = core.Event{Attrs: randVec(rng, d), Cap: rng.Intn(5)}
		}
		users := make([]core.User, nu)
		for i := range users {
			users[i] = core.User{Attrs: randVec(rng, d), Cap: rng.Intn(4)}
		}
		cf := conflict.Random(rng, nv, rng.Float64())
		in, err := core.NewInstance(events, users, cf, sim.Euclidean(d, 10))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := EncodeInstance(&buf, in, SimEuclidean, d, 10); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeInstance(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < nv; v++ {
			for u := 0; u < nu; u++ {
				if got.Similarity(v, u) != in.Similarity(v, u) {
					t.Fatal("similarity drift through JSON")
				}
			}
			for j := 0; j < nv; j++ {
				if got.Conflicting(v, j) != in.Conflicting(v, j) {
					t.Fatal("conflict drift through JSON")
				}
			}
		}
	}
}

func randVec(rng *rand.Rand, d int) sim.Vector {
	v := make(sim.Vector, d)
	for i := range v {
		v[i] = rng.Float64() * 10
	}
	return v
}
