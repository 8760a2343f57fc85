package partition

import (
	"context"
	"testing"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
)

// bridged generates a clustered instance whose communities are chained into
// one giant similarity component by bridge users — the workload this package
// exists for.
func bridged(t testing.TB, nv, nu, k int, cfRatio, bridgeFrac float64, seed int64) *core.Instance {
	t.Helper()
	cfg := dataset.ClusteredConfig{
		NumEvents: nv, NumUsers: nu, Communities: k, BlockDim: 2,
		EventCapMax: 6, UserCapMax: 3, CFRatio: cfRatio,
		BridgeFrac: bridgeFrac, Seed: seed,
	}
	in, err := cfg.Generate()
	if err != nil {
		t.Fatalf("bridged generate: %v", err)
	}
	return in
}

// solveSharded drives a component the way internal/decomp does in
// production, serially: Split, solve every shard with algo, Merge, and
// solve in whole when there is nothing to shard or the merge falls back.
// The returned stats are nil when in did not split.
func solveSharded(t testing.TB, in *core.Instance, algo string, opt Options) (*core.Matching, *Stats) {
	t.Helper()
	sh, err := Split(in, opt)
	if err != nil {
		t.Fatal(err)
	}
	if sh == nil {
		return solveWhole(t, in, algo), nil
	}
	results := make([]*core.Matching, len(sh.Shards))
	for j, s := range sh.Shards {
		if results[j], err = core.SolveContext(context.Background(), algo, s.Sub, nil); err != nil {
			t.Fatal(err)
		}
	}
	m, st, err := Merge(context.Background(), in, sh, results, opt)
	if err != nil {
		t.Fatal(err)
	}
	if st.FellBack {
		m = solveWhole(t, in, algo)
	}
	return m, st
}

// solveWhole is the unsharded (monolithic) solve of in.
func solveWhole(t testing.TB, in *core.Instance, algo string) *core.Matching {
	t.Helper()
	m, err := core.SolveContext(context.Background(), algo, in, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func samePairs(a, b *core.Matching) bool {
	pa, pb := a.SortedPairs(), b.SortedPairs()
	if len(pa) != len(pb) {
		return false
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return false
		}
	}
	return true
}

func TestNormalizedDefaults(t *testing.T) {
	o := Options{}.Normalized()
	if o.MaxArea != DefaultMaxArea || o.DriftBudget != DefaultDriftBudget {
		t.Fatalf("unexpected defaults %+v", o)
	}
	set := Options{MaxArea: 7, DriftBudget: 0.2}
	if got := set.Normalized(); got != set {
		t.Fatalf("Normalized clobbered explicit options: %+v", got)
	}
}

// TestBuildSplitDisjointCoverage: Split is a true partition — every user in
// exactly one shard, every event in at most one (events of a shard that
// attracted no users are dropped, their pairs counted as cut), and shard
// sub-instances carry the parent's similarities bit-identically.
func TestBuildSplitDisjointCoverage(t *testing.T) {
	in := bridged(t, 24, 240, 6, 0.3, 0.2, 11)
	sh, err := Split(in, Options{MaxArea: 500}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if sh == nil || len(sh.Shards) < 2 {
		t.Fatal("expected a multi-shard split")
	}
	evSeen := make(map[int]int)
	usSeen := make(map[int]int)
	for si, s := range sh.Shards {
		if len(s.Events) == 0 || len(s.Users) == 0 {
			t.Fatalf("shard %d degenerate (%d events, %d users)", si, len(s.Events), len(s.Users))
		}
		for _, v := range s.Events {
			if prev, dup := evSeen[v]; dup {
				t.Fatalf("event %d in shards %d and %d", v, prev, si)
			}
			evSeen[v] = si
		}
		for _, u := range s.Users {
			if prev, dup := usSeen[u]; dup {
				t.Fatalf("user %d in shards %d and %d", u, prev, si)
			}
			usSeen[u] = si
		}
		for i, v := range s.Events {
			for j, u := range s.Users {
				if got, want := s.Sub.Similarity(i, j), in.Similarity(v, u); got != want {
					t.Fatalf("sub sim(%d,%d)=%v != parent sim(%d,%d)=%v", i, j, got, v, u, want)
				}
			}
		}
	}
	if len(usSeen) != in.NumUsers() {
		t.Fatalf("%d users covered, want %d", len(usSeen), in.NumUsers())
	}
	if sh.lostCutBound < 0 || (len(sh.cuts) > 0 && sh.lostCutBound <= 0) {
		t.Fatalf("implausible lost-cut bound %v for %d cuts", sh.lostCutBound, len(sh.cuts))
	}
}

func TestBuildSplitBelowThreshold(t *testing.T) {
	in := bridged(t, 8, 40, 4, 0.2, 0.25, 3)
	area := int64(in.NumEvents()) * int64(in.NumUsers())
	sh, err := Split(in, Options{MaxArea: area}.Normalized())
	if err != nil {
		t.Fatal(err)
	}
	if sh != nil {
		t.Fatal("Split sharded a component at the area threshold")
	}
}

// TestSolveComponentFeasible: on the giant bridged component, Split yields
// several shards whose Merge validates against the full instance
// (capacities + conflicts) with populated stats.
func TestSolveComponentFeasible(t *testing.T) {
	in := bridged(t, 32, 320, 8, 0.3, 0.1, 7)
	opt := Options{MaxArea: 600, DriftBudget: 0.9}
	m, st := solveSharded(t, in, "mincostflow", opt)
	if st == nil || st.Shards < 2 {
		t.Fatalf("expected a multi-shard split, got stats %+v", st)
	}
	if st.FellBack {
		t.Fatalf("unexpected fallback (drift estimate %v)", st.DriftEstimate)
	}
	if err := core.Validate(in, m); err != nil {
		t.Fatalf("merged matching infeasible: %v", err)
	}
	if st.CutPairs <= 0 || st.LostCutBound <= 0 {
		t.Fatalf("bridged instance produced no cut (%+v)", st)
	}
	if st.DriftEstimate <= 0 || st.DriftEstimate > opt.DriftBudget {
		t.Fatalf("drift estimate %v outside (0, %v]", st.DriftEstimate, opt.DriftBudget)
	}
}

// TestSolveComponentTinyBudgetFallsBack: a drift budget below any positive
// estimate must make Merge report the hard fallback and withhold the
// merged matching.
func TestSolveComponentTinyBudgetFallsBack(t *testing.T) {
	in := bridged(t, 24, 240, 6, 0.25, 0.15, 19)
	opt := Options{MaxArea: 500, DriftBudget: 1e-12}
	sh, err := Split(in, opt)
	if err != nil || sh == nil {
		t.Fatalf("Split = (%v, %v), want a sharding", sh, err)
	}
	results := make([]*core.Matching, len(sh.Shards))
	for j, s := range sh.Shards {
		results[j] = solveWhole(t, s.Sub, "mincostflow")
	}
	m, st, err := Merge(context.Background(), in, sh, results, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !st.FellBack || m != nil {
		t.Fatalf("no fallback at budget 1e-12 (drift estimate %v, matching %v)", st.DriftEstimate, m)
	}
}

// TestSolveComponentSingleEventUsesMono: a component that cannot split
// (one event) is not sharded: Split returns nil and the whole solve
// answers.
func TestSolveComponentSingleEventUsesMono(t *testing.T) {
	events := []core.Event{{Cap: 2}}
	users := make([]core.User, 30)
	matrix := [][]float64{make([]float64, 30)}
	for u := range users {
		users[u] = core.User{Cap: 1}
		matrix[0][u] = 0.5
	}
	in, err := core.NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	m, st := solveSharded(t, in, "mincostflow", Options{MaxArea: 10})
	if st != nil {
		t.Fatalf("single-event component split: %+v", st)
	}
	if m.Size() != 2 {
		t.Fatalf("mono path returned %d pairs, want 2", m.Size())
	}
}

// TestRepairBoundaryAddsCutPair: a cut pair with free capacity on both ends
// is added back with its full gain.
func TestRepairBoundaryAddsCutPair(t *testing.T) {
	events := []core.Event{{Cap: 2}, {Cap: 1}}
	users := []core.User{{Cap: 1}, {Cap: 1}}
	matrix := [][]float64{{0.9, 0.4}, {0.85, 0}}
	in, err := core.NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMatching()
	m.Add(0, 0, 0.9)
	cuts := []cutPair{{v: 0, u: 1, sim: 0.4}, {v: 1, u: 0, sim: 0.85}}
	repaired, moves, gain := repairBoundary(in, m, cuts)
	if moves != 1 || gain != 0.4 {
		t.Fatalf("moves=%d gain=%v, want 1 move of gain 0.4", moves, gain)
	}
	if !repaired.Contains(0, 1) || !repaired.Contains(0, 0) {
		t.Fatalf("unexpected repaired pairs %v", repaired.Pairs())
	}
	if err := core.Validate(in, repaired); err != nil {
		t.Fatal(err)
	}
}

// TestRepairBoundaryDisplacesConflictingPair: a strong cut pair displaces a
// strictly weaker assignment its event conflicts with.
func TestRepairBoundaryDisplacesConflictingPair(t *testing.T) {
	events := []core.Event{{Cap: 1}, {Cap: 1}}
	users := []core.User{{Cap: 1}}
	matrix := [][]float64{{0.9}, {0.3}}
	cf := conflict.FromPairs(2, [][2]int{{0, 1}})
	in, err := core.NewMatrixInstance(events, users, cf, matrix)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMatching()
	m.Add(1, 0, 0.3)
	repaired, moves, gain := repairBoundary(in, m, []cutPair{{v: 0, u: 0, sim: 0.9}})
	if moves != 1 || gain < 0.59 || gain > 0.61 {
		t.Fatalf("moves=%d gain=%v, want the 0.3 -> 0.9 swap", moves, gain)
	}
	if !repaired.Contains(0, 0) || repaired.Contains(1, 0) {
		t.Fatalf("unexpected repaired pairs %v", repaired.Pairs())
	}
	if err := core.Validate(in, repaired); err != nil {
		t.Fatal(err)
	}
}

// TestRepairBoundaryNoFalseMoves: when no cut pair can strictly improve the
// matching, the input comes back untouched.
func TestRepairBoundaryNoFalseMoves(t *testing.T) {
	events := []core.Event{{Cap: 1}, {Cap: 1}}
	users := []core.User{{Cap: 1}, {Cap: 1}}
	matrix := [][]float64{{0.9, 0.8}, {0.7, 0.6}}
	in, err := core.NewMatrixInstance(events, users, nil, matrix)
	if err != nil {
		t.Fatal(err)
	}
	m := core.NewMatching()
	m.Add(0, 0, 0.9)
	m.Add(1, 1, 0.6)
	repaired, moves, gain := repairBoundary(in, m, []cutPair{{v: 0, u: 1, sim: 0.8}, {v: 1, u: 0, sim: 0.7}})
	if moves != 0 || gain != 0 || repaired != m {
		t.Fatalf("moves=%d gain=%v: repair moved on a local optimum", moves, gain)
	}
}

func TestTopSum(t *testing.T) {
	if got := topSum([]float64{0.2, 0.9, 0.5}, 2); got != 1.4 {
		t.Fatalf("topSum = %v, want 1.4", got)
	}
	if got := topSum([]float64{0.2, 0.9}, 5); got != 1.1 {
		t.Fatalf("topSum under capacity = %v, want 1.1", got)
	}
}

func TestRenumberGroups(t *testing.T) {
	got := renumberGroups([]int{7, 7, 3, 7, 3, 9})
	want := []int{0, 0, 1, 0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("renumberGroups = %v, want %v", got, want)
		}
	}
}
