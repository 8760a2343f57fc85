package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ebsnlab/geacc/internal/encoding"
)

// TestGoldenCLI: `geacc-solve -in` reproduces every cross-caller record of
// internal/pipeline (pairs and MaxSum bits per instance, algo and mode).
func TestGoldenCLI(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "pipeline", "testdata", "golden")
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
	for _, r := range g.Records {
		args := []string{"-in", filepath.Join(dir, r.Instance+".json"), "-algo", r.Algo,
			"-seed", fmt.Sprint(g.Seed), "-quiet"}
		switch r.Mode {
		case "decompose":
			args = append(args, "-decompose")
		case "approx_shard":
			args = append(args, "-approx-shard", "-shard-max-area", fmt.Sprint(g.Shard.MaxArea),
				"-shard-drift-budget", fmt.Sprint(g.Shard.DriftBudget))
		}
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		var mj encoding.MatchingJSON
		if err := json.Unmarshal(out.Bytes(), &mj); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(mj.MaxSum)); got != r.MaxSumBits {
			t.Errorf("%s/%s/%s: MaxSum bits %s, recorded %s", r.Instance, r.Algo, r.Mode, got, r.MaxSumBits)
		}
		pairs := [][2]int{}
		for _, p := range mj.Pairs {
			pairs = append(pairs, [2]int{p.V, p.U})
		}
		if !reflect.DeepEqual(pairs, r.Pairs) {
			t.Errorf("%s/%s/%s: pairs %v, recorded %v", r.Instance, r.Algo, r.Mode, pairs, r.Pairs)
		}
	}
}
