package geacc

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ebsnlab/geacc/internal/encoding"
)

// goldenProblem rebuilds a serialized instance through the public options.
func goldenProblem(t *testing.T, path string) *Problem {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc encoding.InstanceJSON
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	events := make([]Event, len(doc.Events))
	for i, e := range doc.Events {
		events[i] = Event{Attrs: e.Attrs, Cap: e.Cap}
	}
	users := make([]User, len(doc.Users))
	for i, u := range doc.Users {
		users[i] = User{Attrs: u.Attrs, Cap: u.Cap}
	}
	opts := []Option{WithConflictPairs(doc.Conflicts)}
	switch doc.Sim {
	case encoding.SimMatrix:
		opts = append(opts, WithSimilarityMatrix(doc.Matrix))
	case encoding.SimCosine:
		opts = append(opts, WithCosineSimilarity())
	case encoding.SimEuclidean:
		opts = append(opts, WithEuclideanSimilarity(doc.Dim, doc.MaxT))
	default:
		t.Fatalf("%s: similarity %q", path, doc.Sim)
	}
	p, err := NewProblem(events, users, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestGoldenFacade: Problem.SolveOpts (and SolvePortfolio) reproduce every
// cross-caller record of internal/pipeline.
func TestGoldenFacade(t *testing.T) {
	dir := filepath.Join("internal", "pipeline", "testdata", "golden")
	raw, err := os.ReadFile(filepath.Join(dir, "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g struct {
		Seed  int64 `json:"seed"`
		Shard struct {
			MaxArea     int64   `json:"max_area"`
			DriftBudget float64 `json:"drift_budget"`
		} `json:"shard"`
		Records []struct {
			Instance, Algo, Mode string
			MaxSumBits           string   `json:"max_sum_bits"`
			Pairs                [][2]int `json:"pairs"`
		} `json:"records"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	algos := map[string]Algorithm{"greedy": Greedy, "mincostflow": MinCostFlow, "exact": Exact,
		"random-v": RandomV, "random-u": RandomU}
	problems := map[string]*Problem{}
	for _, r := range g.Records {
		p := problems[r.Instance]
		if p == nil {
			p = goldenProblem(t, filepath.Join(dir, r.Instance+".json"))
			problems[r.Instance] = p
		}
		opt := SolveOptions{Seed: g.Seed, Decompose: r.Mode != "plain"}
		if r.Mode == "approx_shard" {
			opt.ApproxShard = &ApproxShardOptions{MaxArea: g.Shard.MaxArea, DriftBudget: g.Shard.DriftBudget}
		}
		var m *Matching
		if algo, ok := algos[r.Algo]; ok {
			m, err = p.SolveOpts(algo, opt)
		} else if r.Algo == "portfolio" && r.Mode == "plain" {
			m, err = p.SolvePortfolio(g.Seed)
		} else {
			t.Fatalf("no facade entry for %s/%s", r.Algo, r.Mode)
		}
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", r.Instance, r.Algo, r.Mode, err)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(m.MaxSum())); got != r.MaxSumBits {
			t.Errorf("%s/%s/%s: MaxSum bits %s, recorded %s", r.Instance, r.Algo, r.Mode, got, r.MaxSumBits)
		}
		pairs := [][2]int{}
		for _, a := range m.SortedPairs() {
			pairs = append(pairs, [2]int{a.V, a.U})
		}
		if !reflect.DeepEqual(pairs, r.Pairs) {
			t.Errorf("%s/%s/%s: pairs %v, recorded %v", r.Instance, r.Algo, r.Mode, pairs, r.Pairs)
		}
	}
}
