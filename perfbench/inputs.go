package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"

	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/store"
)

// workload is one named traffic mix. Solve workloads POST generated
// instances to /solve; the delta workload streams instance deltas at a
// persistent server.
type workload struct {
	name string

	// Solve workloads: the solver, the Table III instance shape, how many
	// seeded base instances are generated, and whether every request gets
	// distinct content (unique) or the bases are cycled byte-identically.
	algo          string
	events, users int
	bases         int
	unique        bool

	// Delta workload: ops each lane runs in the measured phase.
	delta        bool
	opsPerLane   int
	setupEvents  int
	setupUsers   int
	deltaDim     int
	deltaMaxT    float64
	rebalanceAlg string
}

var workloads = []workload{
	{name: "solve-unique-greedy", algo: "greedy", events: 40, users: 400, bases: 32, unique: true},
	{name: "solve-repeat-greedy", algo: "greedy", events: 40, users: 400, bases: 4},
	{name: "solve-unique-mcflow", algo: "mincostflow", events: 16, users: 160, bases: 32, unique: true},
	{name: "delta-persisted", delta: true, opsPerLane: 2000, setupEvents: 20, setupUsers: 100,
		deltaDim: 4, deltaMaxT: 100, rebalanceAlg: "greedy"},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// solveInputs generates the request bodies of a solve workload. Unique
// workloads splice a per-request max_t into a base body: the attribute
// bound scales every similarity by the same monotone map, so the solver
// does the same work on every request while the content hash — and so the
// solve cache key — differs.
type solveInputs struct {
	path   string
	bodies [][]byte // whole base bodies
	heads  [][]byte // base body up to the max_t value
	tails  [][]byte // base body after the max_t value
	maxT   float64
	unique bool
}

func newSolveInputs(w workload, seed int64) (*solveInputs, error) {
	s := &solveInputs{path: "/solve?algo=" + w.algo, unique: w.unique}
	for b := 0; b < w.bases; b++ {
		cfg := dataset.DefaultSynthetic()
		cfg.NumEvents, cfg.NumUsers = w.events, w.users
		cfg.CFRatio = 0.25
		cfg.Seed = seed*7919 + int64(b)
		in, err := cfg.Generate()
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := encoding.EncodeInstance(&buf, in, encoding.SimEuclidean, cfg.Dim, cfg.MaxT); err != nil {
			return nil, err
		}
		body := buf.Bytes()
		key := []byte(`"max_t": `)
		i := bytes.LastIndex(body, key)
		if i < 0 {
			return nil, fmt.Errorf("encoded instance has no max_t field")
		}
		i += len(key)
		j := i + bytes.IndexAny(body[i:], ",\n}")
		s.bodies = append(s.bodies, body)
		s.heads = append(s.heads, body[:i])
		s.tails = append(s.tails, body[j:])
		s.maxT = cfg.MaxT
	}
	return s, nil
}

// body returns the request body of op k. Warm-up ops use k >= warmupBase,
// a range measured ops never reach.
func (s *solveInputs) body(k int) []byte { return s.appendBody(nil, k) }

// appendBody is body building into dst's storage; the repeat workload's
// pooled bodies come back as they are.
func (s *solveInputs) appendBody(dst []byte, k int) []byte {
	b := k % len(s.bodies)
	if !s.unique {
		return s.bodies[b]
	}
	maxT := s.maxT + float64(k/len(s.bodies)+1)*1e-3
	out := append(dst[:0], s.heads[b]...)
	out = strconv.AppendFloat(out, maxT, 'g', -1, 64)
	return append(out, s.tails[b]...)
}

const warmupBase = 1 << 20

// deltaOp is one request of a lane's stream, with the store op the
// in-process pipeline applies for it (Kind is store.OpRebalance for a
// rebalance, whose logged pairs only exist after it ran).
type deltaOp struct {
	path string
	body []byte
	op   store.Op
}

// lane is one closed-loop client's instance: its create request, the
// population ops run during set-up, and the measured stream.
type lane struct {
	id     string
	meta   store.Meta
	create []byte
	setup  []deltaOp
	ops    []deltaOp
}

// Request bodies of the instance API, declared here so the benchmark
// stays an external client of the wire format.
type createBody struct {
	ID   string  `json:"id"`
	Sim  string  `json:"sim"`
	Dim  int     `json:"dim"`
	MaxT float64 `json:"max_t"`
}

type addEventBody struct {
	Attrs     []float64 `json:"attrs"`
	Cap       int       `json:"cap"`
	Conflicts []int     `json:"conflicts,omitempty"`
}

type addUserBody struct {
	Attrs []float64 `json:"attrs"`
	Cap   int       `json:"cap"`
}

type cancelBody struct {
	Event *int `json:"event,omitempty"`
	User  *int `json:"user,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // statically shaped structs cannot fail to encode
	}
	return b
}

// newLane generates lane l's stream: a seeded mix of add-event 2,
// add-user 6, cancel-event 1, cancel-user 1 and rebalance 2. Cancels
// name any earlier id; cancelling an already-cancelled node is a valid
// no-op, so every op succeeds.
func newLane(w workload, seed int64, l, ops int) lane {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(l)*0x9e3779b9))
	id := fmt.Sprintf("bench-%d", l)
	base := "/instances/" + id
	ln := lane{
		id:     id,
		meta:   store.Meta{ID: id, Sim: encoding.SimEuclidean, Dim: w.deltaDim, MaxT: w.deltaMaxT},
		create: mustJSON(createBody{ID: id, Sim: string(encoding.SimEuclidean), Dim: w.deltaDim, MaxT: w.deltaMaxT}),
	}
	nEvents, nUsers := 0, 0
	attrs := func() []float64 {
		a := make([]float64, w.deltaDim)
		for i := range a {
			a[i] = rng.Float64() * w.deltaMaxT
		}
		return a
	}
	addEvent := func() deltaOp {
		b := addEventBody{Attrs: attrs(), Cap: 1 + rng.Intn(8)}
		if nEvents > 0 && rng.Intn(3) == 0 {
			b.Conflicts = []int{rng.Intn(nEvents)}
		}
		nEvents++
		return deltaOp{path: base + "/events", body: mustJSON(b),
			op: store.Op{Kind: store.OpAddEvent, Attrs: b.Attrs, Cap: b.Cap, Conflicts: b.Conflicts}}
	}
	addUser := func() deltaOp {
		b := addUserBody{Attrs: attrs(), Cap: 1 + rng.Intn(3)}
		nUsers++
		return deltaOp{path: base + "/users", body: mustJSON(b),
			op: store.Op{Kind: store.OpAddUser, Attrs: b.Attrs, Cap: b.Cap}}
	}
	for i := 0; i < w.setupEvents; i++ {
		ln.setup = append(ln.setup, addEvent())
	}
	for i := 0; i < w.setupUsers; i++ {
		ln.setup = append(ln.setup, addUser())
	}
	// Each block of 12 ops holds the mix exactly, in seeded order, so the
	// instance size at op k is the same for every seed and only the
	// attributes, capacities, conflicts and cancel targets vary.
	var block [12]int
	for i := 0; i < ops; i++ {
		if i%len(block) == 0 {
			for j := range block {
				block[j] = j
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		var op deltaOp
		switch n := block[i%len(block)]; {
		case n < 2:
			op = addEvent()
		case n < 8:
			op = addUser()
		case n < 9:
			v := rng.Intn(nEvents)
			op = deltaOp{path: base + "/cancel", body: mustJSON(cancelBody{Event: &v}),
				op: store.Op{Kind: store.OpCancelEvent, Event: &v}}
		case n < 10:
			u := rng.Intn(nUsers)
			op = deltaOp{path: base + "/cancel", body: mustJSON(cancelBody{User: &u}),
				op: store.Op{Kind: store.OpRemoveUser, User: &u}}
		default:
			op = deltaOp{path: base + "/rebalance?scope=dirty&algo=" + w.rebalanceAlg,
				op: store.Op{Kind: store.OpRebalance}}
		}
		ln.ops = append(ln.ops, op)
	}
	return ln
}
