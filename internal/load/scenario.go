// Package load drives sustained HTTP load against a running geacc-server
// and reports client-side latency quantiles, achieved throughput, and
// status accounting — the measurement half of the service's capacity story
// (the admission controller in internal/server is the enforcement half).
//
// A Scenario describes a reproducible workload: either stateless
// solve-per-request traffic (a pool of pre-encoded synthetic instances
// cycled by every lane) or a stateful instance-delta stream (each lane owns
// one named instance and feeds it a seeded mix of arrivals, cancellations,
// and rebalances). Run executes a scenario in closed loop (N workers, each
// issuing its next request when the previous answer lands) or open loop
// (requests fired on a fixed schedule regardless of completion — the shape
// that exposes queueing collapse). Latency quantiles come from the same
// obs.Window reservoir math the server's own SLO windows use, so client-
// and server-side percentiles are directly comparable.
//
// See docs/LOAD.md for the workflow and report schema.
package load

import "fmt"

// Kind separates the two workload shapes a scenario can have.
type Kind string

// Scenario kinds.
const (
	// KindSolve issues stateless POST /solve requests, one instance per
	// request, cycling a small pool of pre-encoded synthetic instances.
	KindSolve Kind = "solve"
	// KindDelta gives each lane its own named instance and streams
	// arrival/cancel/rebalance deltas at it. Lanes never share an
	// instance, so per-instance op order is sequential and every
	// generated id reference is valid regardless of worker interleaving.
	KindDelta Kind = "delta"
)

// Mix weights the op stream of a KindDelta scenario. Weights are relative;
// zero disables an op. Cancels fall back to arrivals while the lane has
// nothing to cancel yet.
type Mix struct {
	AddEvent    int `json:"add_event"`
	AddUser     int `json:"add_user"`
	CancelEvent int `json:"cancel_event"`
	CancelUser  int `json:"cancel_user"`
	Rebalance   int `json:"rebalance"`
}

func (m Mix) total() int {
	return m.AddEvent + m.AddUser + m.CancelEvent + m.CancelUser + m.Rebalance
}

// Scenario is one reproducible workload: everything the generator needs is
// here plus a seed, so two runs with the same (scenario, seed) issue
// byte-identical request streams.
type Scenario struct {
	Name        string `json:"name"`
	Description string `json:"description"`
	Kind        Kind   `json:"kind"`

	// KindSolve fields: the solver, the synthetic instance shape, and how
	// many distinct pre-encoded instances each lane cycles through.
	Algo     string  `json:"algo,omitempty"`
	Events   int     `json:"events,omitempty"`
	Users    int     `json:"users,omitempty"`
	CFRatio  float64 `json:"cf_ratio,omitempty"`
	Variants int     `json:"variants,omitempty"`
	// NoCache appends ?cache=0 to every solve, bypassing the server's memo
	// cache — the knob that makes a cold-solve lane measure solver work
	// instead of cache lookups.
	NoCache bool `json:"no_cache,omitempty"`
	// ApproxShard appends ?approx_shard=1 to every solve, routing oversized
	// components through internal/partition's bounded-drift sharding;
	// ShardMaxArea tunes it when non-zero (geacc-load
	// -approx-shard/-shard-max-area).
	ApproxShard  bool  `json:"approx_shard,omitempty"`
	ShardMaxArea int64 `json:"shard_max_area,omitempty"`

	// KindDelta fields: the instance's similarity space, the initial
	// population each lane sets up before measurement, and the op mix.
	Dim         int     `json:"dim,omitempty"`
	MaxT        float64 `json:"max_t,omitempty"`
	SetupEvents int     `json:"setup_events,omitempty"`
	SetupUsers  int     `json:"setup_users,omitempty"`
	Mix         Mix     `json:"mix,omitempty"`
}

// Validate checks the scenario is complete enough to generate from.
func (sc Scenario) Validate() error {
	if sc.Name == "" {
		return fmt.Errorf("load: scenario has no name")
	}
	switch sc.Kind {
	case KindSolve:
		if sc.Algo == "" {
			return fmt.Errorf("load: scenario %q: solve kind needs an algo", sc.Name)
		}
		if sc.Events <= 0 || sc.Users <= 0 {
			return fmt.Errorf("load: scenario %q: non-positive instance shape %dx%d", sc.Name, sc.Events, sc.Users)
		}
		if sc.Variants <= 0 {
			return fmt.Errorf("load: scenario %q: needs at least one instance variant", sc.Name)
		}
	case KindDelta:
		if sc.Dim <= 0 || sc.MaxT <= 0 {
			return fmt.Errorf("load: scenario %q: delta kind needs dim > 0 and max_t > 0", sc.Name)
		}
		if sc.Mix.total() <= 0 {
			return fmt.Errorf("load: scenario %q: empty op mix", sc.Name)
		}
	default:
		return fmt.Errorf("load: scenario %q: unknown kind %q", sc.Name, sc.Kind)
	}
	return nil
}

// builtins are the stock scenarios, ordered for display. solve-greedy and
// delta-mix are the pair the pinned BENCH_server.json snapshot tracks.
var builtins = []Scenario{
	{
		Name:        "solve-greedy",
		Description: "stateless greedy solves over 40x400 synthetic instances",
		Kind:        KindSolve,
		Algo:        "greedy",
		Events:      40, Users: 400, CFRatio: 0.25,
		Variants: 4,
	},
	{
		Name:        "solve-mincostflow",
		Description: "stateless min-cost-flow solves over 20x200 synthetic instances",
		Kind:        KindSolve,
		Algo:        "mincostflow",
		Events:      20, Users: 200, CFRatio: 0.25,
		Variants: 4,
	},
	{
		Name:        "delta-mix",
		Description: "per-lane instances fed arrivals, cancels, and dirty rebalances",
		Kind:        KindDelta,
		Dim:         4, MaxT: 100,
		SetupEvents: 20, SetupUsers: 100,
		Mix: Mix{AddEvent: 2, AddUser: 6, CancelEvent: 1, CancelUser: 1, Rebalance: 2},
	},
	{
		// 20x200 (not 40x400): the cold baseline below must complete enough
		// requests per measure phase for its p99 to be a quantile rather
		// than a max — the flow solver is quartic, so shape sets sample count.
		Name:        "solve-repeat",
		Description: "repeated identical min-cost-flow solves; measures the memo-cache hit path",
		Kind:        KindSolve,
		Algo:        "mincostflow",
		Events:      20, Users: 200, CFRatio: 0.25,
		Variants: 3,
	},
	{
		Name:        "solve-repeat-cold",
		Description: "the solve-repeat workload with ?cache=0; the cold baseline the hit path is gated against",
		Kind:        KindSolve,
		Algo:        "mincostflow",
		Events:      20, Users: 200, CFRatio: 0.25,
		Variants: 3,
		NoCache:  true,
	},
	{
		Name:        "overload-mincostflow",
		Description: "open-loop min-cost-flow solves past capacity; measures shed rate and accepted latency under 429-heavy load",
		Kind:        KindSolve,
		Algo:        "mincostflow",
		Events:      40, Users: 400, CFRatio: 0.25,
		Variants: 4,
		NoCache:  true, // cache hits would absorb the offered load; overload needs real solves
	},
}

// Builtin returns the named stock scenario.
func Builtin(name string) (Scenario, error) {
	for _, sc := range builtins {
		if sc.Name == name {
			return sc, nil
		}
	}
	return Scenario{}, fmt.Errorf("load: unknown scenario %q (have %s)", name, builtinNames())
}

// Builtins returns the stock scenarios in display order.
func Builtins() []Scenario {
	out := make([]Scenario, len(builtins))
	copy(out, builtins)
	return out
}

func builtinNames() string {
	s := ""
	for i, sc := range builtins {
		if i > 0 {
			s += ", "
		}
		s += sc.Name
	}
	return s
}
