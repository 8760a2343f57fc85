package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/server"
	"github.com/ebsnlab/geacc/internal/solvecache"
	"github.com/ebsnlab/geacc/internal/store"
)

// The traced run sends a workload's inputs through the layers' public
// functions in the order the server's handlers call them, with a span
// around each call. The program's own spans (solve/greedy, greedy/init,
// mincostflow/relax, decomp/build, ...) land in the same recorder as
// children.

// opTrace is one traced op: its spans plus the bytes allocated inside the
// calls whose allocation is a per-layer metric.
type opTrace struct {
	spans  []obs.SpanData
	allocs map[string]float64 // metric -> KiB
	traced time.Duration
	plain  time.Duration // the same op through an untraced twin pipeline
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// span runs f inside a span named name on ctx's recorder, recording the
// bytes it allocated under allocMetric when that is non-empty and the op
// is traced.
func span(ctx context.Context, ot *opTrace, name, allocMetric string, f func() error) error {
	var a0 uint64
	if ot != nil && allocMetric != "" {
		a0 = heapAllocs()
	}
	sp := obs.RecorderFrom(ctx).Start(name)
	err := f()
	sp.End()
	if ot != nil && allocMetric != "" {
		ot.allocs[allocMetric] += float64(heapAllocs()-a0) / 1024
	}
	return err
}

// solveSimID mirrors the server's cache identity for function similarities.
func solveSimID(info encoding.SimInfo) string {
	return fmt.Sprintf("%s/%d/%v", info.Kind, info.Dim, info.MaxT)
}

// solvePipeline is handleSolve's sequence: decode, cache key and lookup,
// solve, validate, encode, and store on a miss.
func solvePipeline(ctx context.Context, ot *opTrace, algo string, body []byte, cache *solvecache.Cache) error {
	var in *core.Instance
	var info encoding.SimInfo
	if err := span(ctx, ot, "encoding.decode", "encoding.decode_alloc_kb", func() (err error) {
		in, info, err = encoding.DecodeInstanceMeta(bytes.NewReader(body))
		return err
	}); err != nil {
		return err
	}
	var key solvecache.Key
	_ = span(ctx, ot, "solvecache.key", "", func() error {
		key, _ = solvecache.InstanceKey(in, solvecache.KeySpec{Algo: algo, Seed: 1, SimID: solveSimID(info)})
		return nil
	})
	var cached any
	var hit bool
	_ = span(ctx, ot, "solvecache.lookup", "", func() error {
		cached, hit = cache.Get(key)
		return nil
	})
	var out bytes.Buffer
	if hit {
		return span(ctx, ot, "encoding.encode", "", func() error { return writeResponse(&out, cached.(server.SolveResponse)) })
	}
	var m *core.Matching
	start := time.Now()
	if err := span(ctx, ot, "core.solve", "core."+algoMetric(algo)+"_alloc_kb", func() (err error) {
		m, err = core.SolveContext(ctx, algo, in, rand.New(rand.NewSource(1)))
		return err
	}); err != nil {
		return err
	}
	elapsed := time.Since(start).Seconds()
	if err := span(ctx, ot, "core.validate", "", func() error { return core.Validate(in, m) }); err != nil {
		return err
	}
	var resp server.SolveResponse
	if err := span(ctx, ot, "encoding.encode", "", func() error {
		var buf bytes.Buffer
		if err := encoding.EncodeMatching(&buf, m); err != nil {
			return err
		}
		var mj encoding.MatchingJSON
		if err := json.Unmarshal(buf.Bytes(), &mj); err != nil {
			return err
		}
		resp = server.SolveResponse{Matching: mj, Algo: algo, Seconds: elapsed,
			Events: in.NumEvents(), Users: in.NumUsers()}
		return writeResponse(&out, resp)
	}); err != nil {
		return err
	}
	return span(ctx, ot, "solvecache.lookup", "", func() error {
		cache.Put(key, resp)
		return nil
	})
}

// writeResponse encodes a /solve response the way the server writes it.
func writeResponse(w *bytes.Buffer, v server.SolveResponse) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func algoMetric(algo string) string {
	if algo == "mincostflow" {
		return "mincostflow"
	}
	return "greedy"
}

// deltaState is one instance as the server holds it: arranger, write-ahead
// log, dirty marks and the per-instance reuse caches.
type deltaState struct {
	arr            *core.Arranger
	log            *store.Log
	dirtyE, dirtyU map[int]bool
	opt            decomp.Options
	algo           string
}

func newDeltaState(dir string, ln lane, algo string) (*deltaState, error) {
	st, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	l, err := st.Create(ln.meta)
	if err != nil {
		return nil, err
	}
	f, err := ln.meta.SimInfo().Func()
	if err != nil {
		return nil, err
	}
	arr, err := core.NewArranger(f)
	if err != nil {
		return nil, err
	}
	// The server's per-instance caches: 128 memoized components, 64 warm
	// flow states.
	return &deltaState{
		arr: arr, log: l, algo: algo,
		dirtyE: make(map[int]bool), dirtyU: make(map[int]bool),
		opt: decomp.Options{Seed: 1, SolveCache: solvecache.New(128),
			SimID: solveSimID(ln.meta.SimInfo()), WarmCache: core.NewWarmCache(64)},
	}, nil
}

// do is the delta handlers' sequence: append, apply and mark dirty for a
// delta; a dirty-scoped rebalance then append of its outcome for a
// rebalance; a snapshot whenever the log has drifted SnapshotEvery ops.
func (s *deltaState) do(ctx context.Context, op store.Op) error {
	if op.Kind == store.OpRebalance {
		var res decomp.RebalanceResult
		if err := span(ctx, nil, "decomp.rebalance", "", func() (err error) {
			res, err = decomp.RebalanceScoped(ctx, s.arr, s.algo, sortedSet(s.dirtyE), sortedSet(s.dirtyU), false, s.opt)
			return err
		}); err != nil {
			return err
		}
		logged := store.Op{Kind: store.OpRebalance, Adopted: res.Adopted}
		if res.Adopted {
			for _, p := range s.arr.Matching().Pairs() {
				logged.Pairs = append(logged.Pairs, encoding.PairJSON{V: p.V, U: p.U, Sim: p.Sim})
			}
		}
		if err := span(ctx, nil, "store.append", "", func() (err error) {
			_, err = s.log.Append(logged)
			return err
		}); err != nil {
			return err
		}
		clear(s.dirtyE)
		clear(s.dirtyU)
	} else {
		mark := func() {}
		switch op.Kind {
		case store.OpAddEvent:
			nv := s.arr.NumEvents()
			mark = func() { s.dirtyE[nv] = true }
		case store.OpAddUser:
			nu := s.arr.NumUsers()
			mark = func() { s.dirtyU[nu] = true }
		case store.OpCancelEvent:
			mark = func() { s.dirtyE[*op.Event] = true }
		case store.OpRemoveUser:
			mark = func() { s.dirtyU[*op.User] = true }
		}
		if err := span(ctx, nil, "store.append", "", func() (err error) {
			_, err = s.log.Append(op)
			return err
		}); err != nil {
			return err
		}
		if err := span(ctx, nil, "store.apply", "", func() error { return store.Apply(s.arr, op) }); err != nil {
			return err
		}
		mark()
	}
	if s.log.OpsSinceSnapshot() >= server.DefaultSnapshotEvery {
		return span(ctx, nil, "store.snapshot", "", func() error {
			return s.log.WriteSnapshot(ctx, s.arr, sortedSet(s.dirtyE), sortedSet(s.dirtyU))
		})
	}
	return nil
}

func sortedSet(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// pair runs one op through an untraced and a traced pipeline, alternating
// which goes first so neither always runs on a warm cache.
func pair(ctx context.Context, i int, plain, traced func(context.Context, *opTrace) error) (opTrace, error) {
	ot := opTrace{allocs: make(map[string]float64)}
	rec := obs.NewRecorder()
	tctx := obs.ContextWithRecorder(ctx, rec)
	runPlain := func() error {
		t := time.Now()
		err := plain(ctx, nil)
		ot.plain = time.Since(t)
		return err
	}
	runTraced := func() error {
		t := time.Now()
		err := traced(tctx, &ot)
		ot.traced = time.Since(t)
		return err
	}
	first, second := runPlain, runTraced
	if i%2 == 1 {
		first, second = runTraced, runPlain
	}
	if err := first(); err != nil {
		return ot, err
	}
	if err := second(); err != nil {
		return ot, err
	}
	ot.spans = rec.Spans()
	return ot, nil
}

// traceSolve runs solve ops 0, 1, ... through the pipeline for about
// seconds (and at least minTraceOps ops).
func traceSolve(ctx context.Context, w workload, in *solveInputs, seconds float64) ([]opTrace, error) {
	cachePlain := solvecache.New(server.DefaultSolveCacheEntries)
	cacheTraced := solvecache.New(server.DefaultSolveCacheEntries)
	if !w.unique {
		for b := range in.bodies {
			for _, c := range []*solvecache.Cache{cachePlain, cacheTraced} {
				if err := solvePipeline(ctx, nil, w.algo, in.bodies[b], c); err != nil {
					return nil, err
				}
			}
		}
	}
	var ops []opTrace
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for k := 0; k < minTraceOps || time.Now().Before(deadline); k++ {
		body := in.body(k)
		ot, err := pair(ctx, k,
			func(c context.Context, _ *opTrace) error { return solvePipeline(c, nil, w.algo, body, cachePlain) },
			func(c context.Context, ot *opTrace) error { return solvePipeline(c, ot, w.algo, body, cacheTraced) })
		if err != nil {
			return nil, fmt.Errorf("traced op %d: %w", k, err)
		}
		ops = append(ops, ot)
	}
	return ops, nil
}

const minTraceOps = 20

// traceDelta runs one lane's stream through two independent instances —
// one traced, one not — and returns the traced ops of the measured stream
// plus the traced instance's final MaxSum.
func traceDelta(ctx context.Context, w workload, ln lane, dir string) ([]opTrace, float64, error) {
	plain, err := newDeltaState(filepath.Join(dir, "plain"), ln, w.rebalanceAlg)
	if err != nil {
		return nil, 0, err
	}
	defer plain.log.Close()
	traced, err := newDeltaState(filepath.Join(dir, "traced"), ln, w.rebalanceAlg)
	if err != nil {
		return nil, 0, err
	}
	defer traced.log.Close()
	for _, op := range ln.setup {
		for _, s := range []*deltaState{plain, traced} {
			if err := s.do(ctx, op.op); err != nil {
				return nil, 0, err
			}
		}
	}
	var ops []opTrace
	for i, op := range ln.ops {
		ot, err := pair(ctx, i,
			func(c context.Context, _ *opTrace) error { return plain.do(c, op.op) },
			func(c context.Context, _ *opTrace) error { return traced.do(c, op.op) })
		if err != nil {
			return nil, 0, fmt.Errorf("traced delta op %d: %w", i, err)
		}
		ops = append(ops, ot)
	}
	if plain.arr.MaxSum() != traced.arr.MaxSum() {
		return nil, 0, fmt.Errorf("traced and untraced pipelines diverged")
	}
	return ops, traced.arr.MaxSum(), nil
}

// writeSpans writes every traced op's spans once, at the end of the run,
// as a Chrome trace-event file (loadable in Perfetto).
func writeSpans(path string, ops []opTrace) error {
	var all []obs.SpanData
	for _, ot := range ops {
		all = append(all, ot.spans...)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, all); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
