package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"github.com/ebsnlab/geacc/internal/obs"
)

// SolveOptions carries the per-run knobs a registry solver honours; each
// solver reads only the fields that concern it.
type SolveOptions struct {
	// Seed seeds the random baselines (unless Rand is set) and derives the
	// portfolio's per-member streams. Deterministic solvers ignore it.
	Seed int64
	// Rand, when non-nil, is the random baselines' PRNG in place of one
	// seeded from Seed.
	Rand *rand.Rand
	// NodeLimit bounds Prune-GEACC's search; 0 means unlimited. A tripped
	// limit returns the best matching found along with ErrNodeLimit.
	NodeLimit int64
	// Index selects greedy's nearest-neighbor index (zero: IndexChunked).
	Index IndexKind
}

func (o SolveOptions) rng() *rand.Rand {
	if o.Rand != nil {
		return o.Rand
	}
	return rand.New(rand.NewSource(o.Seed))
}

// SolverInfo describes one registry solver: its name, the capabilities
// callers dispatch on, and its context-aware run function.
type SolverInfo struct {
	Name string
	// Deterministic solvers ignore the seed, so cache keys can drop it.
	Deterministic bool
	// ExactGated solvers run an exponential search; callers with a work
	// budget refuse them above an instance (or component) area.
	ExactGated bool
	// WarmCapable solvers can resume from a WarmCache (warm-started flow).
	WarmCapable bool
	// Run solves in under ctx. Callers go through SolveOpts, which adds the
	// solve metrics and span.
	Run func(ctx context.Context, in *Instance, opt SolveOptions) (*Matching, error)
}

// PortfolioName is the registry name of the portfolio meta-solver.
const PortfolioName = "portfolio"

// portfolioMembers are the solvers the portfolio entry races: the
// polynomial-time ones (exact is left out, it can run for ever).
var portfolioMembers = []string{"greedy", "mincostflow", "random-v", "random-u"}

// registry is the solver table, sorted by name. It is filled in init
// because the portfolio entry runs its members through the table itself.
var registry []SolverInfo

func init() {
	registry = []SolverInfo{
		{
			Name: "exact", Deterministic: true, ExactGated: true,
			Run: func(ctx context.Context, in *Instance, opt SolveOptions) (*Matching, error) {
				m, _, err := ExactOpts(in, ExactOptions{Ctx: ctx, NodeLimit: opt.NodeLimit})
				return m, err
			},
		},
		{
			Name: "greedy", Deterministic: true,
			Run: func(ctx context.Context, in *Instance, opt SolveOptions) (*Matching, error) {
				return GreedyCtx(ctx, in, GreedyOptions{Index: opt.Index})
			},
		},
		{
			Name: "mincostflow", Deterministic: true, WarmCapable: true,
			Run: func(ctx context.Context, in *Instance, _ SolveOptions) (*Matching, error) {
				fr, err := MinCostFlowCtx(ctx, in, FlowOptions{})
				if err != nil {
					return nil, err
				}
				return fr.Matching, nil
			},
		},
		{
			Name: PortfolioName,
			Run: func(ctx context.Context, in *Instance, opt SolveOptions) (*Matching, error) {
				m, _, err := PortfolioCtx(ctx, in, portfolioMembers, opt.Seed)
				return m, err
			},
		},
		{
			Name: "random-u",
			Run: func(_ context.Context, in *Instance, opt SolveOptions) (*Matching, error) {
				return RandomU(in, opt.rng()), nil
			},
		},
		{
			Name: "random-v",
			Run: func(_ context.Context, in *Instance, opt SolveOptions) (*Matching, error) {
				return RandomV(in, opt.rng()), nil
			},
		},
	}
}

// SolverNames returns the registry names in sorted order.
func SolverNames() []string {
	names := make([]string, len(registry))
	for i, s := range registry {
		names[i] = s.Name
	}
	return names
}

// LookupSolver resolves one registry entry, with a helpful error listing the
// valid names.
func LookupSolver(name string) (*SolverInfo, error) {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("core: unknown solver %q (valid: %v)", name, SolverNames())
}

// ExactGateError refuses an exact search whose area exceeds the caller's
// limit; Stats records the decision.
type ExactGateError struct {
	Stats ExactGateStats
	// Decomposed reports that the area is the largest component's.
	Decomposed bool
}

func (e *ExactGateError) Error() string {
	if e.Decomposed {
		return fmt.Sprintf("exact search is limited to component |V|·|U| <= %d (largest component area %d)",
			e.Stats.Limit, e.Stats.ComponentArea)
	}
	return fmt.Sprintf("exact search is limited to |V|·|U| <= %d (instance area %d); decompose to gate per component",
		e.Stats.Limit, e.Stats.ComponentArea)
}

// Gate applies an area budget to the solver: nil stats when the solver is
// not exact-gated or limit <= 0 (no budget), else the decision, with an
// *ExactGateError when area exceeds limit.
func (s *SolverInfo) Gate(area, limit int64, decomposed bool) (*ExactGateStats, error) {
	if !s.ExactGated || limit <= 0 {
		return nil, nil
	}
	st := &ExactGateStats{ComponentArea: area, Limit: limit}
	if area > limit {
		st.Gated = true
		return st, &ExactGateError{Stats: *st, Decomposed: decomposed}
	}
	return st, nil
}

// SolveContext runs the named registry solver under ctx with rng as the
// random baselines' PRNG; see SolveOpts.
func SolveContext(ctx context.Context, name string, in *Instance, rng *rand.Rand) (*Matching, error) {
	return SolveOpts(ctx, name, in, SolveOptions{Rand: rng})
}

// SolveOpts runs the named registry solver under ctx, recording the
// per-algorithm solve metrics (geacc_solve_total, geacc_solve_seconds,
// geacc_solve_errors_total) and — when a recorder travels on ctx via
// obs.ContextWithRecorder — one trace span per solve.
//
// Cancellation is honored by the solvers that can actually run long:
// mincostflow aborts between augmenting paths, exact between search-node
// expansions, and greedy between heap pops. The random baselines check ctx
// only once, before starting (they are linear-time shuffles). A canceled
// run returns ctx's error and a nil matching. A tripped exact node limit is
// the one error returned alongside a (feasible) matching.
func SolveOpts(ctx context.Context, name string, in *Instance, opt SolveOptions) (*Matching, error) {
	s, err := LookupSolver(name)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// Canceled before starting still counts as an errored solve, so
		// dashboards see load shed under cancellation storms.
		observeSolve(name, 0, err)
		return nil, err
	}
	sp := obs.RecorderFrom(ctx).Start("solve/"+name).
		Annotate("events", in.NumEvents()).
		Annotate("users", in.NumUsers())
	start := time.Now()
	m, err := s.Run(ctx, in, opt)
	observeSolve(name, time.Since(start), err)
	if err != nil && !errors.Is(err, ErrNodeLimit) {
		sp.Annotate("error", err.Error()).End()
		return nil, err
	}
	sp.Annotate("pairs", m.Size()).Annotate("max_sum", m.MaxSum()).End()
	return m, err
}
