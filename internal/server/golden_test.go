package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
)

// goldenDir holds the cross-caller records of internal/pipeline: pairs and
// MaxSum bits of every (instance, algo, mode) the per-caller solve paths
// accepted before they shared pipeline.Run.
var goldenDir = filepath.Join("..", "pipeline", "testdata", "golden")

// TestGoldenSolve: POST /solve reproduces every record, except that exact
// searches above the HTTP area budget are refused with 422.
func TestGoldenSolve(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(goldenDir, "records.json"))
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
	srv := newServer(t)
	for _, r := range g.Records {
		body, err := os.ReadFile(filepath.Join(goldenDir, r.Instance+".json"))
		if err != nil {
			t.Fatal(err)
		}
		url := fmt.Sprintf("%s/solve?algo=%s&seed=%d", srv.URL, r.Algo, g.Seed)
		switch r.Mode {
		case "decompose":
			url += "&decompose=1"
		case "approx_shard":
			url += fmt.Sprintf("&approx_shard=1&shard_max_area=%d&shard_drift_budget=%v", g.Shard.MaxArea, g.Shard.DriftBudget)
		}
		resp, out := postJSON(t, url, body)
		if r.Algo == "exact" && goldenArea(t, body, r.Mode != "plain") > exactHTTPAreaLimit {
			if resp.StatusCode != http.StatusUnprocessableEntity {
				t.Fatalf("%s/%s: status %d, want 422", r.Instance, r.Mode, resp.StatusCode)
			}
			continue
		}
		var doc SolveResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(out, &doc) != nil {
			t.Fatalf("%s/%s/%s: %d %s", r.Instance, r.Algo, r.Mode, resp.StatusCode, out)
		}
		if got := fmt.Sprintf("%016x", math.Float64bits(doc.Matching.MaxSum)); got != r.MaxSumBits {
			t.Errorf("%s/%s/%s: MaxSum bits %s, recorded %s", r.Instance, r.Algo, r.Mode, got, r.MaxSumBits)
		}
		pairs := [][2]int{}
		for _, p := range doc.Matching.Pairs {
			pairs = append(pairs, [2]int{p.V, p.U})
		}
		if !reflect.DeepEqual(pairs, r.Pairs) {
			t.Errorf("%s/%s/%s: pairs %v, recorded %v", r.Instance, r.Algo, r.Mode, pairs, r.Pairs)
		}
	}
}

// goldenArea is the area the exact gate measures for an instance body.
func goldenArea(t *testing.T, body []byte, decomposed bool) int64 {
	t.Helper()
	in, err := encoding.DecodeInstance(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if !decomposed {
		return int64(in.NumEvents()) * int64(in.NumUsers())
	}
	d, err := decomp.DecomposeContext(context.Background(), in)
	if err != nil {
		t.Fatal(err)
	}
	return d.MaxComponentArea()
}
