package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/encoding"
)

// clusteredJSON encodes a multi-community instance: the workload shape
// ?decompose=1 shards.
func clusteredJSON(t *testing.T, cfg dataset.ClusteredConfig) []byte {
	t.Helper()
	in, err := cfg.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encoding.EncodeInstance(&buf, in, encoding.SimCosine, cfg.Dim(), 1); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func smallClustered(t *testing.T) []byte {
	return clusteredJSON(t, dataset.ClusteredConfig{
		NumEvents: 12, NumUsers: 48, Communities: 4, BlockDim: 2,
		EventCapMax: 5, UserCapMax: 2, CFRatio: 0.25, Seed: 5,
	})
}

func TestSolveDecomposed(t *testing.T) {
	srv := newServer(t)
	body := smallClustered(t)
	for _, algo := range []string{"greedy", "mincostflow", "random-v"} {
		resp, out := postJSON(t, srv.URL+"/solve?algo="+algo+"&decompose=1&diag=1&workers=2", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", algo, resp.StatusCode, out)
		}
		var doc SolveResponse
		if err := json.Unmarshal(out, &doc); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if doc.Matching.MaxSum <= 0 || len(doc.Matching.Pairs) == 0 {
			t.Fatalf("%s: empty solution %+v", algo, doc)
		}
		if doc.Diagnostics == nil || doc.Diagnostics.Decomposition == nil {
			t.Fatalf("%s: diagnostics missing decomposition stats", algo)
		}
		if got := doc.Diagnostics.Decomposition.Components; got != 4 {
			t.Fatalf("%s: %d components, want 4", algo, got)
		}
		if got := doc.Diagnostics.Decomposition.Workers; got != 2 {
			t.Fatalf("%s: %d workers, want 2", algo, got)
		}
	}
}

// TestSolveDecomposedMatchesMonolithic: same instance, same algorithm, with
// and without ?decompose=1 — identical pair sets over HTTP too.
func TestSolveDecomposedMatchesMonolithic(t *testing.T) {
	srv := newServer(t)
	body := smallClustered(t)
	var mono, dec SolveResponse
	for url, doc := range map[string]*SolveResponse{
		srv.URL + "/solve?algo=greedy":             &mono,
		srv.URL + "/solve?algo=greedy&decompose=1": &dec,
	} {
		resp, out := postJSON(t, url, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", url, resp.StatusCode, out)
		}
		if err := json.Unmarshal(out, doc); err != nil {
			t.Fatal(err)
		}
	}
	if len(mono.Matching.Pairs) != len(dec.Matching.Pairs) {
		t.Fatalf("pair counts differ: monolithic %d, decomposed %d",
			len(mono.Matching.Pairs), len(dec.Matching.Pairs))
	}
	for i := range mono.Matching.Pairs {
		if mono.Matching.Pairs[i] != dec.Matching.Pairs[i] {
			t.Fatalf("pair %d differs: monolithic %+v, decomposed %+v",
				i, mono.Matching.Pairs[i], dec.Matching.Pairs[i])
		}
	}
}

// TestSolveDecomposePortfolio: the portfolio is an ordinary registry
// solver, so ?decompose=1 runs it per component; the merge can only beat
// or tie each member's decomposed solve.
func TestSolveDecomposePortfolio(t *testing.T) {
	srv := newServer(t)
	body := smallClustered(t)
	port := solveDoc(t, srv.URL+"/solve?algo=portfolio&decompose=1", body)
	for _, algo := range []string{"greedy", "mincostflow"} {
		member := solveDoc(t, srv.URL+"/solve?decompose=1&algo="+algo, body)
		if port.Matching.MaxSum < member.Matching.MaxSum {
			t.Fatalf("decomposed portfolio %v < decomposed %s %v",
				port.Matching.MaxSum, algo, member.Matching.MaxSum)
		}
	}
}

func TestSolveDecomposeBadWorkers(t *testing.T) {
	srv := newServer(t)
	resp, out := postJSON(t, srv.URL+"/solve?algo=greedy&decompose=1&workers=abc", smallClustered(t))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d: %s", resp.StatusCode, out)
	}
}

// TestSolveDecomposedExactGate: the |V|·|U| <= 200 exact budget applies per
// component under ?decompose=1 — an instance far too big for a monolithic
// exact solve passes when its largest shard fits, and still fails when one
// shard alone blows the budget.
func TestSolveDecomposedExactGate(t *testing.T) {
	srv := newServer(t)
	// 16×64 whole (area 1024 > 200), but 8 communities of 2×8 (area 16).
	sharded := clusteredJSON(t, dataset.ClusteredConfig{
		NumEvents: 16, NumUsers: 64, Communities: 8, BlockDim: 2,
		EventCapMax: 3, UserCapMax: 2, CFRatio: 0.25, Seed: 9,
	})
	if resp, out := postJSON(t, srv.URL+"/solve?algo=exact", sharded); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("monolithic exact: status %d: %s", resp.StatusCode, out)
	}
	resp, out := postJSON(t, srv.URL+"/solve?algo=exact&decompose=1", sharded)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decomposed exact: status %d: %s", resp.StatusCode, out)
	}
	// One community: decomposition finds a single 16×64 shard, so the gate
	// still refuses.
	whole := clusteredJSON(t, dataset.ClusteredConfig{
		NumEvents: 16, NumUsers: 64, Communities: 1, BlockDim: 2,
		EventCapMax: 3, UserCapMax: 2, CFRatio: 0.25, Seed: 9,
	})
	if resp, out := postJSON(t, srv.URL+"/solve?algo=exact&decompose=1", whole); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("oversized shard: status %d: %s", resp.StatusCode, out)
	}
}

// TestSolveDecomposeCancelMidShard: the client goes away while the worker
// pool is mid-shard; the handler must answer 499 (client closed request),
// not 200 or 500. The handler is driven directly with a recorder because a
// real client never sees the status its dead connection provoked. The
// instance is two 50×500 min-cost-flow shards — far more work than the 2ms
// cancellation delay, so the cancel lands inside the pool.
func TestSolveDecomposeCancelMidShard(t *testing.T) {
	cfg := dataset.DefaultClustered()
	cfg.Communities = 2
	body := clusteredJSON(t, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost,
		"/solve?algo=mincostflow&decompose=1&workers=1", bytes.NewReader(body)).WithContext(ctx)
	rr := httptest.NewRecorder()
	timer := time.AfterFunc(2*time.Millisecond, cancel)
	defer timer.Stop()
	svc, err := newService(slog.Default(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	svc.handleSolve(rr, req)
	if rr.Code != statusClientClosedRequest {
		t.Fatalf("status %d, want %d", rr.Code, statusClientClosedRequest)
	}
}
