package pipeline

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/partition"
)

// goldenFile holds the cross-caller records: for each instance in
// testdata/golden, every (algo × mode) the per-caller solve paths accepted
// before they were merged into Run, as the (v, u)-sorted pair list and the
// MaxSum float bits, seed 1. Modes are plain, decompose, and approx_shard
// (decompose plus sharding at Shard). Exact on the 40×400 body was never
// recorded (its search does not finish), nor portfolio under decompose (it
// was refused; see TestGoldenDecomposedPortfolio).
type goldenFile struct {
	Seed  int64 `json:"seed"`
	Shard struct {
		MaxArea     int64   `json:"max_area"`
		DriftBudget float64 `json:"drift_budget"`
	} `json:"shard"`
	Records []goldenRecord `json:"records"`
}

type goldenRecord struct {
	Instance   string   `json:"instance"`
	Algo       string   `json:"algo"`
	Mode       string   `json:"mode"`
	MaxSumBits string   `json:"max_sum_bits"`
	Pairs      [][2]int `json:"pairs"`
}

func loadGolden(t *testing.T) (goldenFile, map[string]*core.Instance) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "golden", "records.json"))
	if err != nil {
		t.Fatal(err)
	}
	var g goldenFile
	if err := json.Unmarshal(raw, &g); err != nil {
		t.Fatal(err)
	}
	instances := map[string]*core.Instance{}
	for _, r := range g.Records {
		if instances[r.Instance] != nil {
			continue
		}
		f, err := os.Open(filepath.Join("testdata", "golden", r.Instance+".json"))
		if err != nil {
			t.Fatal(err)
		}
		in, err := encoding.DecodeInstance(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		instances[r.Instance] = in
	}
	return g, instances
}

func (g goldenFile) spec(algo, mode string) Spec {
	spec := Spec{Algo: algo, Seed: g.Seed, Decompose: mode != "plain"}
	if mode == "approx_shard" {
		sh := partition.Options{MaxArea: g.Shard.MaxArea, DriftBudget: g.Shard.DriftBudget}.Normalized()
		spec.Shard = &sh
	}
	return spec
}

// checkGolden compares a matching (sorted pairs + MaxSum) to its record.
func checkGolden(t *testing.T, r goldenRecord, maxSum float64, pairs [][2]int) {
	t.Helper()
	if got := fmt.Sprintf("%016x", math.Float64bits(maxSum)); got != r.MaxSumBits {
		t.Errorf("%s/%s/%s: MaxSum bits %s (%v), recorded %s", r.Instance, r.Algo, r.Mode, got, maxSum, r.MaxSumBits)
	}
	if len(pairs) == 0 && len(r.Pairs) == 0 {
		return
	}
	if !reflect.DeepEqual(pairs, r.Pairs) {
		t.Errorf("%s/%s/%s: pairs %v, recorded %v", r.Instance, r.Algo, r.Mode, pairs, r.Pairs)
	}
}

func sortedPairs(m *core.Matching) [][2]int {
	var out [][2]int
	for _, p := range m.SortedPairs() {
		out = append(out, [2]int{p.V, p.U})
	}
	return out
}

func TestGoldenRun(t *testing.T) {
	g, instances := loadGolden(t)
	for _, r := range g.Records {
		res, err := Run(context.Background(), instances[r.Instance], g.spec(r.Algo, r.Mode))
		if err != nil {
			t.Fatalf("%s/%s/%s: %v", r.Instance, r.Algo, r.Mode, err)
		}
		checkGolden(t, r, res.Matching.MaxSum(), sortedPairs(res.Matching))
	}
}

// TestGoldenDecomposedPortfolio covers the combinations with no record: a
// decomposed portfolio solves each component with every member and keeps
// the best, so it can only beat or tie each member's decomposed solve. The
// sharded merge has no such order (repair and fallback differ per run), so
// there Run only has to succeed with a feasible matching.
func TestGoldenDecomposedPortfolio(t *testing.T) {
	g, instances := loadGolden(t)
	for name, in := range instances {
		if _, err := Run(context.Background(), in, g.spec(core.PortfolioName, "approx_shard")); err != nil {
			t.Fatalf("%s/approx_shard: %v", name, err)
		}
		port, err := Run(context.Background(), in, g.spec(core.PortfolioName, "decompose"))
		if err != nil {
			t.Fatalf("%s/decompose: %v", name, err)
		}
		for _, member := range []string{"greedy", "mincostflow"} {
			res, err := Run(context.Background(), in, g.spec(member, "decompose"))
			if err != nil {
				t.Fatal(err)
			}
			if port.Matching.MaxSum() < res.Matching.MaxSum() {
				t.Errorf("%s: decomposed portfolio %v < decomposed %s %v", name,
					port.Matching.MaxSum(), member, res.Matching.MaxSum())
			}
		}
	}
}
