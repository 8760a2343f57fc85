package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
)

// flatMatrixJSON encodes an nv×nu matrix instance with every similarity
// 0.5 and unit capacities: one component of area nv·nu that the exact
// search itself settles instantly, so only the gate can refuse it.
func flatMatrixJSON(t *testing.T, nv, nu int) []byte {
	t.Helper()
	events := make([]core.Event, nv)
	for i := range events {
		events[i] = core.Event{Cap: 1}
	}
	users := make([]core.User, nu)
	for i := range users {
		users[i] = core.User{Cap: 1}
	}
	matrix := make([][]float64, nv)
	for v := range matrix {
		matrix[v] = make([]float64, nu)
		for u := range matrix[v] {
			matrix[v][u] = 0.5
		}
	}
	in, err := core.NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encoding.EncodeInstance(&buf, in, encoding.SimMatrix, 0, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertGateRefusal checks a 422 with the standard error envelope.
func assertGateRefusal(t *testing.T, resp *http.Response, body []byte) {
	t.Helper()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", resp.StatusCode, body)
	}
	var e errorJSON
	if err := json.Unmarshal(body, &e); err != nil || e.Error == "" || e.RequestID == "" {
		t.Fatalf("error envelope %q (err %v)", body, err)
	}
	if e.RequestID != resp.Header.Get("X-Request-ID") {
		t.Fatalf("request_id %q != header %q", e.RequestID, resp.Header.Get("X-Request-ID"))
	}
}

// TestChromeTraceExactGate: /trace?format=chrome runs the solver /solve
// gates, so it is gated the same way.
func TestChromeTraceExactGate(t *testing.T) {
	srv := newServer(t)
	resp, body := postJSON(t, srv.URL+"/trace?format=chrome&algo=exact", flatMatrixJSON(t, 1, 201))
	assertGateRefusal(t, resp, body)
	if resp, body := postJSON(t, srv.URL+"/trace?format=chrome&algo=exact", flatMatrixJSON(t, 1, 200)); resp.StatusCode != http.StatusOK {
		t.Fatalf("area 200 refused: %d %s", resp.StatusCode, body)
	}
}

// TestRebalanceExactGate: an exact rebalance whose largest component to
// solve exceeds the HTTP area budget is refused with 422 and leaves the
// instance byte-identical; the same component under greedy (or the
// portfolio, an ordinary registry solver) still solves.
func TestRebalanceExactGate(t *testing.T) {
	srv := newServer(t)
	mustPost(t, srv.URL+"/instances", `{"id":"gated","sim":"euclidean","dim":2,"max_t":10}`)
	for i := 0; i < 2; i++ {
		mustPost(t, srv.URL+"/instances/gated/events", `{"attrs":[1,1],"cap":1}`)
	}
	for i := 0; i < 101; i++ { // one component of area 2·101 = 202 > 200
		mustPost(t, srv.URL+"/instances/gated/users", `{"attrs":[1,1],"cap":1}`)
	}
	_, before := getBody(t, srv.URL+"/instances/gated")
	resp, body := postJSON(t, srv.URL+"/instances/gated/rebalance?scope=full&algo=exact", nil)
	assertGateRefusal(t, resp, body)
	if _, after := getBody(t, srv.URL+"/instances/gated"); !bytes.Equal(before, after) {
		t.Fatalf("refused rebalance changed the instance:\n%s\n->\n%s", before, after)
	}
	for _, algo := range []string{"greedy", "portfolio"} {
		if resp, body := postJSON(t, srv.URL+"/instances/gated/rebalance?scope=full&algo="+algo, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s rebalance: %d %s", algo, resp.StatusCode, body)
		}
	}
}

// roundTripMatchingJSON is the historical response path: encode the
// matching, then unmarshal it back into the wire struct.
func roundTripMatchingJSON(t *testing.T, m *core.Matching) encoding.MatchingJSON {
	t.Helper()
	var buf bytes.Buffer
	if err := encoding.EncodeMatching(&buf, m); err != nil {
		t.Fatal(err)
	}
	var mj encoding.MatchingJSON
	if err := json.Unmarshal(buf.Bytes(), &mj); err != nil {
		t.Fatal(err)
	}
	return mj
}

// TestSolveAndTraceBytesMatchRoundTrip: /solve and /trace build their
// matching straight from the solver's pairs; Go floats round-trip exactly,
// so the bytes equal those of the encode-then-unmarshal path.
func TestSolveAndTraceBytesMatchRoundTrip(t *testing.T) {
	srv := newServer(t)
	for seed := int64(1); seed <= 6; seed++ {
		doc := euclideanInstanceJSON(t, seed, 3+int(seed), 10+7*int(seed))
		in, err := encoding.DecodeInstance(bytes.NewReader(doc))
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []string{"greedy", "mincostflow", "random-u"} {
			resp, body := postJSON(t, fmt.Sprintf("%s/solve?algo=%s&seed=%d", srv.URL, algo, seed), doc)
			var got SolveResponse
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil {
				t.Fatalf("%s: %d %s", algo, resp.StatusCode, body)
			}
			m, err := core.SolveContext(context.Background(), algo, in, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			rr := httptest.NewRecorder()
			writeJSON(rr, SolveResponse{Matching: roundTripMatchingJSON(t, m), Algo: algo,
				Seconds: got.Seconds, Events: in.NumEvents(), Users: in.NumUsers()})
			if !bytes.Equal(rr.Body.Bytes(), body) {
				t.Fatalf("seed %d %s: /solve bytes differ from the round-trip encoding", seed, algo)
			}
		}
		resp, body := postJSON(t, srv.URL+"/trace", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("trace: %d %s", resp.StatusCode, body)
		}
		steps := []TraceStepJSON{}
		m := core.GreedyOpts(in, core.GreedyOptions{Trace: func(s core.TraceStep) {
			steps = append(steps, TraceStepJSON{V: s.V, U: s.U, Sim: s.Sim, Accepted: s.Accepted, Reason: s.Reason})
		}})
		rr := httptest.NewRecorder()
		writeJSON(rr, TraceResponse{Matching: roundTripMatchingJSON(t, m), Steps: steps})
		if !bytes.Equal(rr.Body.Bytes(), body) {
			t.Fatalf("seed %d: /trace bytes differ from the round-trip encoding", seed)
		}
	}
}
