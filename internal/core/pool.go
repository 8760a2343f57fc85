package core

import (
	"sync"

	"github.com/ebsnlab/geacc/internal/knn"
	"github.com/ebsnlab/geacc/internal/pqueue"
)

// Per-solve scratch pooling. A server solving per request allocates the
// same transient buffers on every call: Greedy's capacity arrays, stream
// tables and candidate heap; the |V|×|U| similarity matrices of MinCostFlow
// and the exact search; MinCostFlow's flow kernel
// (mincostflow.AcquireBipartite). All of them are dead when the solve
// returns and none leak into the returned Matching, so each gets a
// sync.Pool with a reset that rewrites every byte the next solve reads.
// TestPooledSolveRace exercises concurrent reuse under the race detector;
// the solver property tests pin that pooled and fresh runs are
// bit-identical.

// greedyScratch is the per-run working set of GreedyOpts.
type greedyScratch struct {
	capV, capU []int
	vStreams   []knn.Stream
	uStreams   []knn.Stream
	heap       *pqueue.PairHeap
}

var greedyScratchPool = sync.Pool{New: func() any { return new(greedyScratch) }}

// acquireGreedyScratch returns a scratch sized for an nv × nu instance.
// Stream tables come back all-nil (GreedyOpts creates streams lazily and
// tests entries against nil); capacity arrays are uninitialized — the
// caller overwrites every entry.
func acquireGreedyScratch(nv, nu int) *greedyScratch {
	g := greedyScratchPool.Get().(*greedyScratch)
	g.capV = resizeInts(g.capV, nv)
	g.capU = resizeInts(g.capU, nu)
	g.vStreams = resizeStreams(g.vStreams, nv)
	g.uStreams = resizeStreams(g.uStreams, nu)
	if g.heap == nil {
		g.heap = pqueue.NewPairHeap(nu)
	} else {
		g.heap.Reset(nu)
	}
	return g
}

// releaseGreedyScratch clears the stream tables (so a pooled scratch never
// pins a finished instance's kernels alive) and returns the scratch.
func releaseGreedyScratch(g *greedyScratch) {
	clear(g.vStreams)
	clear(g.uStreams)
	greedyScratchPool.Put(g)
}

// floatsPool recycles flat float64 buffers; MinCostFlow and the exact
// search carve their |V|×|U| similarity matrices out of one.
var floatsPool = sync.Pool{New: func() any { return []float64(nil) }}

// acquireFloats returns an n-element buffer with unspecified contents.
func acquireFloats(n int) []float64 {
	s := floatsPool.Get().([]float64)
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func releaseFloats(s []float64) {
	if s != nil {
		floatsPool.Put(s) //nolint:staticcheck // slice header allocation is amortized by the saved buffer
	}
}

func resizeInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func resizeStreams(s []knn.Stream, n int) []knn.Stream {
	if cap(s) < n {
		s = make([]knn.Stream, n)
	} else {
		s = s[:n]
	}
	return s
}
