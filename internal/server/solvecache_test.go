package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/sim"
)

// newCacheServer builds a test server plus its in-package service handle,
// so tests can read the solve cache's counters directly.
func newCacheServer(t *testing.T, cfg Config) (*httptest.Server, *service) {
	t.Helper()
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	h, svc, err := newHandler(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, svc
}

// euclideanInstanceJSON serializes a random vector instance (euclidean
// similarity, so the cache can key it by SimID).
func euclideanInstanceJSON(t *testing.T, seed int64, nv, nu int) []byte {
	t.Helper()
	const d, maxT = 3, 10.0
	rng := rand.New(rand.NewSource(seed))
	vec := func() sim.Vector {
		v := make(sim.Vector, d)
		for i := range v {
			v[i] = rng.Float64() * maxT
		}
		return v
	}
	events := make([]core.Event, nv)
	for i := range events {
		events[i] = core.Event{Attrs: vec(), Cap: 1 + rng.Intn(2)}
	}
	users := make([]core.User, nu)
	for i := range users {
		users[i] = core.User{Attrs: vec(), Cap: 1 + rng.Intn(2)}
	}
	cf := conflict.Random(rng, nv, 0.25)
	in, err := core.NewInstance(events, users, cf, sim.Euclidean(d, maxT))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := encoding.EncodeInstance(&buf, in, encoding.SimEuclidean, d, maxT); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSolveCacheByteIdenticalResponses is the tentpole contract over HTTP:
// for every algorithm, decomposed or not, a cache hit serves a response
// byte-for-byte identical to the fresh solve it memoized, and bit-identical
// in matching content to an uncached solve of the same instance.
func TestSolveCacheByteIdenticalResponses(t *testing.T) {
	srv, svc := newCacheServer(t, Config{})
	for _, algo := range core.SolverNames() {
		for _, decompose := range []bool{false, true} {
			name := fmt.Sprintf("%s/decompose=%v", algo, decompose)
			t.Run(name, func(t *testing.T) {
				// Small enough for the exact solver's HTTP area guard.
				doc := euclideanInstanceJSON(t, int64(len(algo)), 4, 12)
				url := srv.URL + "/solve?algo=" + algo + "&seed=7"
				if decompose {
					url += "&decompose=1"
				}
				before := svc.solveCache.Stats()
				resp1, body1 := postJSON(t, url, doc)
				if resp1.StatusCode != http.StatusOK {
					t.Fatalf("first solve: %d %s", resp1.StatusCode, body1)
				}
				resp2, body2 := postJSON(t, url, doc)
				if resp2.StatusCode != http.StatusOK {
					t.Fatalf("second solve: %d %s", resp2.StatusCode, body2)
				}
				if !bytes.Equal(body1, body2) {
					t.Fatalf("cached response differs from fresh:\n%s\nvs\n%s", body1, body2)
				}
				after := svc.solveCache.Stats()
				if after.Hits != before.Hits+1 {
					t.Fatalf("hits %d -> %d, want one new hit", before.Hits, after.Hits)
				}
				// The memoized matching must be bit-identical to an uncached
				// solve (timing fields legitimately differ).
				resp3, body3 := postJSON(t, url+"&cache=0", doc)
				if resp3.StatusCode != http.StatusOK {
					t.Fatalf("uncached solve: %d %s", resp3.StatusCode, body3)
				}
				var cached, fresh SolveResponse
				if err := json.Unmarshal(body2, &cached); err != nil {
					t.Fatal(err)
				}
				if err := json.Unmarshal(body3, &fresh); err != nil {
					t.Fatal(err)
				}
				if cached.Matching.MaxSum != fresh.Matching.MaxSum {
					t.Fatalf("max_sum: cached %v fresh %v", cached.Matching.MaxSum, fresh.Matching.MaxSum)
				}
				if len(cached.Matching.Pairs) != len(fresh.Matching.Pairs) {
					t.Fatalf("pairs: cached %d fresh %d", len(cached.Matching.Pairs), len(fresh.Matching.Pairs))
				}
				for i := range cached.Matching.Pairs {
					if cached.Matching.Pairs[i] != fresh.Matching.Pairs[i] {
						t.Fatalf("pair %d: cached %+v fresh %+v", i,
							cached.Matching.Pairs[i], fresh.Matching.Pairs[i])
					}
				}
			})
		}
	}
}

// TestSolveCacheOptOut: ?cache=0 must neither read nor write the cache.
func TestSolveCacheOptOut(t *testing.T) {
	srv, svc := newCacheServer(t, Config{})
	doc := euclideanInstanceJSON(t, 42, 3, 8)
	before := svc.solveCache.Stats()
	for i := 0; i < 3; i++ {
		resp, body := postJSON(t, srv.URL+"/solve?algo=greedy&cache=0", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}
	after := svc.solveCache.Stats()
	if after != before {
		t.Fatalf("cache touched despite ?cache=0: %+v -> %+v", before, after)
	}
}

// TestSolveCacheDisabled: negative SolveCacheEntries turns caching off
// service-wide; solves still work and statusz omits the cache block.
func TestSolveCacheDisabled(t *testing.T) {
	srv, svc := newCacheServer(t, Config{SolveCacheEntries: -1})
	if svc.solveCache != nil {
		t.Fatal("negative SolveCacheEntries must disable the cache")
	}
	doc := euclideanInstanceJSON(t, 1, 3, 8)
	resp, body := postJSON(t, srv.URL+"/solve?algo=greedy", doc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: %d %s", resp.StatusCode, body)
	}
	code, sb := getBody(t, srv.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d", code)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(sb, &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st["solve_cache"]; ok {
		t.Fatal("statusz must omit solve_cache when caching is disabled")
	}
}

// TestStatuszReportsSolveCache: the statusz page surfaces hit/miss counts.
func TestStatuszReportsSolveCache(t *testing.T) {
	srv, _ := newCacheServer(t, Config{})
	doc := euclideanInstanceJSON(t, 5, 3, 8)
	for i := 0; i < 2; i++ {
		if resp, body := postJSON(t, srv.URL+"/solve?algo=greedy", doc); resp.StatusCode != http.StatusOK {
			t.Fatalf("solve %d: %d %s", i, resp.StatusCode, body)
		}
	}
	code, body := getBody(t, srv.URL+"/statusz")
	if code != http.StatusOK {
		t.Fatalf("statusz: %d", code)
	}
	var st StatuszResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SolveCache == nil {
		t.Fatal("statusz missing solve_cache block")
	}
	if st.SolveCache.Hits < 1 || st.SolveCache.Misses < 1 {
		t.Fatalf("solve_cache counters: %+v", *st.SolveCache)
	}
}

// TestSolveCachePortfolioMemoized: the portfolio waits for every member
// and picks the best in member order, so its answer is a function of
// content and seed like any solver's — a repeat is a byte-identical hit.
func TestSolveCachePortfolioMemoized(t *testing.T) {
	srv, svc := newCacheServer(t, Config{})
	doc := euclideanInstanceJSON(t, 9, 3, 8)
	var bodies [2][]byte
	for i := range bodies {
		resp, body := postJSON(t, srv.URL+"/solve?algo=portfolio", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("portfolio %d: %d %s", i, resp.StatusCode, body)
		}
		bodies[i] = body
	}
	if st := svc.solveCache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("portfolio cache traffic: %+v", st)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatal("memoized portfolio response differs from the fresh one")
	}
}

// TestRebalanceStatsReportCacheReuse drives an instance through deltas and
// repeated rebalances and asserts the per-instance stats endpoint reports
// the solve-cache traffic — including hits on the second, identical
// rebalance (satellite: instance stats surface cache hit/miss).
func TestRebalanceStatsReportCacheReuse(t *testing.T) {
	srv, _ := newCacheServer(t, Config{})
	if resp, body := postStr(t, srv.URL+"/instances", `{"id":"c1","sim":"euclidean","dim":2,"max_t":10}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 6; i++ {
		ev := fmt.Sprintf(`{"attrs":[%v,%v],"cap":2}`, rng.Float64()*10, rng.Float64()*10)
		if resp, body := postStr(t, srv.URL+"/instances/c1/events", ev); resp.StatusCode != http.StatusOK {
			t.Fatalf("add event: %d %s", resp.StatusCode, body)
		}
	}
	for i := 0; i < 15; i++ {
		us := fmt.Sprintf(`{"attrs":[%v,%v],"cap":1}`, rng.Float64()*10, rng.Float64()*10)
		if resp, body := postStr(t, srv.URL+"/instances/c1/users", us); resp.StatusCode != http.StatusOK {
			t.Fatalf("add user: %d %s", resp.StatusCode, body)
		}
	}
	for i := 0; i < 2; i++ {
		resp, body := postStr(t, srv.URL+"/instances/c1/rebalance?scope=full&algo=mincostflow", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rebalance %d: %d %s", i, resp.StatusCode, body)
		}
	}
	code, body := getBody(t, srv.URL+"/instances/c1/stats")
	if code != http.StatusOK {
		t.Fatalf("stats: %d %s", code, body)
	}
	var st InstanceStats
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SolveCache == nil {
		t.Fatal("instance stats missing solve_cache block")
	}
	if st.SolveCache.Misses == 0 {
		t.Fatalf("first rebalance should have missed: %+v", *st.SolveCache)
	}
	if st.SolveCache.Hits == 0 {
		t.Fatalf("second identical rebalance should have hit: %+v", *st.SolveCache)
	}
	if st.WarmFlowEntries == 0 {
		t.Fatal("mincostflow rebalance should have populated the warm flow cache")
	}
	n := len(st.RecentRebalances)
	if n != 2 {
		t.Fatalf("recent rebalances: %d", n)
	}
	if st.RecentRebalances[0].CacheMisses == 0 {
		t.Fatalf("outcome 0: %+v", st.RecentRebalances[0])
	}
	if st.RecentRebalances[1].CacheHits == 0 {
		t.Fatalf("outcome 1: %+v", st.RecentRebalances[1])
	}
}

// TestReplayUnaffectedByCaches pins the replay non-interaction property:
// rebalances run with the solve cache and warm-started flow write only
// their adopted pairs to the WAL, so a restart replays to a byte-identical
// instance without consulting (or needing) any cache.
func TestReplayUnaffectedByCaches(t *testing.T) {
	dir := t.TempDir()
	srv := newInstanceServer(t, dir, 0)
	if resp, body := postStr(t, srv.URL+"/instances", `{"id":"p1","sim":"euclidean","dim":2,"max_t":10}`); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	rng := rand.New(rand.NewSource(77))
	addSome := func() {
		for i := 0; i < 4; i++ {
			ev := fmt.Sprintf(`{"attrs":[%v,%v],"cap":2}`, rng.Float64()*10, rng.Float64()*10)
			if resp, body := postStr(t, srv.URL+"/instances/p1/events", ev); resp.StatusCode != http.StatusOK {
				t.Fatalf("add event: %d %s", resp.StatusCode, body)
			}
			us := fmt.Sprintf(`{"attrs":[%v,%v],"cap":1}`, rng.Float64()*10, rng.Float64()*10)
			if resp, body := postStr(t, srv.URL+"/instances/p1/users", us); resp.StatusCode != http.StatusOK {
				t.Fatalf("add user: %d %s", resp.StatusCode, body)
			}
		}
	}
	// Interleave deltas with cached, warm-started mincostflow rebalances so
	// the WAL records rebalances that actually exercised both caches.
	for round := 0; round < 3; round++ {
		addSome()
		resp, body := postStr(t, srv.URL+"/instances/p1/rebalance?algo=mincostflow", "")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("rebalance round %d: %d %s", round, resp.StatusCode, body)
		}
	}
	code, before := getBody(t, srv.URL+"/instances/p1")
	if code != http.StatusOK {
		t.Fatalf("status before restart: %d", code)
	}
	srv.Close()

	srv2 := newInstanceServer(t, dir, 0)
	code, after := getBody(t, srv2.URL+"/instances/p1")
	if code != http.StatusOK {
		t.Fatalf("status after restart: %d", code)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("replayed instance diverged:\n%s\nvs\n%s", before, after)
	}
}
