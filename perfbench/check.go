package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"sort"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/store"
)

// checkSolveSamples verifies every sampled /solve response against the
// body that was sent: the matching must be feasible for the instance and
// its MaxSum bit-identical to an in-process solve with the server's seed.
// It returns the samples' mean MaxSum.
func checkSolveSamples(ctx context.Context, run *httpRun, w workload, in *solveInputs, samples map[int][]byte) float64 {
	if len(samples) == 0 {
		run.fail("%s: no sampled responses", w.name)
		return 0
	}
	ks := make([]int, 0, len(samples))
	for k := range samples {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	var sum float64
	for _, k := range ks {
		var resp struct {
			Matching encoding.MatchingJSON `json:"matching"`
		}
		if err := json.Unmarshal(samples[k], &resp); err != nil {
			run.fail("op %d: undecodable response: %v", k, err)
			continue
		}
		inst, _, err := encoding.DecodeInstanceMeta(bytes.NewReader(in.body(k)))
		if err != nil {
			run.fail("op %d: sent body does not decode: %v", k, err)
			continue
		}
		m := core.NewMatching()
		for _, p := range resp.Matching.Pairs {
			m.Add(p.V, p.U, p.Sim)
		}
		if err := core.Validate(inst, m); err != nil {
			run.fail("op %d: infeasible matching: %v", k, err)
		}
		// The pairs are summed here in sorted order, the server in
		// insertion order, so the two may differ in the last bits.
		if math.Abs(m.MaxSum()-resp.Matching.MaxSum) > 1e-9*math.Max(1, math.Abs(m.MaxSum())) {
			run.fail("op %d: pairs sum to %v, response says max_sum %v", k, m.MaxSum(), resp.Matching.MaxSum)
		}
		ref, err := core.SolveContext(ctx, w.algo, inst, rand.New(rand.NewSource(1)))
		if err != nil {
			run.fail("op %d: in-process solve: %v", k, err)
			continue
		}
		if math.Float64bits(ref.MaxSum()) != math.Float64bits(resp.Matching.MaxSum) {
			run.fail("op %d: max_sum %v, in-process solve gives %v", k, resp.Matching.MaxSum, ref.MaxSum())
		}
		sum += resp.Matching.MaxSum
	}
	return sum / float64(len(ks))
}

// checkRecovery replays one lane's data directory offline and requires the
// recovered matching to serialize byte-identically to the last
// GET /instances/{id} the live server answered.
func checkRecovery(ctx context.Context, run *httpRun, dir string, live json.RawMessage) {
	st, err := store.LoadDir(ctx, dir)
	if err != nil {
		run.fail("recover %s: %v", dir, err)
		return
	}
	m := st.Arranger.Matching()
	mj := encoding.MatchingJSON{MaxSum: m.MaxSum(), Pairs: []encoding.PairJSON{}}
	for _, p := range m.Pairs() {
		mj.Pairs = append(mj.Pairs, encoding.PairJSON{V: p.V, U: p.U, Sim: p.Sim})
	}
	got, err := json.Marshal(mj)
	if err != nil {
		run.fail("encode recovered matching: %v", err)
		return
	}
	var want bytes.Buffer
	if err := json.Compact(&want, live); err != nil {
		run.fail("compact live matching: %v", err)
		return
	}
	if !bytes.Equal(got, want.Bytes()) {
		run.fail("recovered matching of %s differs from the live server's (%d vs %d bytes)", dir, len(got), want.Len())
	}
}
