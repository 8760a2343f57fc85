package bench

import (
	"errors"
	"fmt"
	"time"

	"github.com/ebsnlab/geacc/internal/conflict"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/dataset"
	"github.com/ebsnlab/geacc/internal/randx"
)

// runFig5Scalability reproduces Fig. 5a/5b: Greedy-GEACC only, |V| ∈
// {100, 200, 500, 1000} as separate series over |U| ∈ {10K..100K}, with
// max c_v raised to 200 as in the paper. Each point's Algo carries the
// series label ("greedy|V|=100").
func runFig5Scalability(opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	var points []Point
	for vi, nv := range []int{100, 200, 500, 1000} {
		for ui, nu := range []int{10000, 25000, 50000, 75000, 100000} {
			var reps []Point
			for r := 0; r < opt.Reps; r++ {
				cfg := dataset.DefaultSynthetic()
				cfg.NumEvents = opt.scaleCard(nv, 2)
				cfg.NumUsers = opt.scaleCard(nu, 2)
				cfg.EventCapMax = 200
				cfg.Seed = opt.Seed + int64(vi)*101 + int64(ui)*1019 + int64(r)*41
				in, err := cfg.Generate()
				if err != nil {
					return nil, err
				}
				m, sec, bytes, err := MeasureAlgo(Options{}, in, "greedy", cfg.Seed+5)
				if err != nil {
					return nil, fmt.Errorf("bench: fig5ab |V|=%d |U|=%d: %w", nv, nu, err)
				}
				reps = append(reps, Point{
					Experiment: "fig5ab",
					X:          float64(cfg.NumUsers),
					Algo:       fmt.Sprintf("greedy|V|=%d", nv),
					MaxSum:     m.MaxSum(), Seconds: sec, Bytes: bytes,
				})
			}
			points = append(points, average(reps))
		}
	}
	return points, nil
}

// exactSearchBudget caps a single Prune-GEACC/exhaustive run inside the
// harness. The paper's exact algorithm is exponential and some sampled
// instances genuinely need >10⁹ recursion nodes (its own Fig. 5d reports
// ~10² s runs); a capped run returns the best matching found, and the point
// carries Extra["exact_capped"] = 1 so tables can flag it.
const exactSearchBudget = 200_000_000

// runFig5Effectiveness reproduces Fig. 5c/5d: MaxSum and running time of
// the approximations against Prune-GEACC's optimum on tiny instances
// (|V| = 5, |U| = 15, c_v ~ Uniform[1, 10]), sweeping the conflict density.
func runFig5Effectiveness(opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	algos := []string{"greedy", "mincostflow", "exact"}
	var points []Point
	for xi, ratio := range []float64{0, 0.25, 0.5, 0.75, 1} {
		perAlgo := make(map[string][]Point)
		for r := 0; r < opt.Reps; r++ {
			cfg := dataset.DefaultSynthetic()
			cfg.NumEvents = 5
			cfg.NumUsers = opt.scaleCard(15, 5)
			cfg.EventCapMax = 10
			cfg.CFRatio = ratio
			cfg.Seed = opt.Seed + int64(xi)*1021 + int64(r)*43
			in, err := cfg.Generate()
			if err != nil {
				return nil, err
			}
			for _, algo := range algos[:2] {
				m, sec, bytes, err := MeasureAlgo(opt, in, algo, cfg.Seed+int64(len(algo)))
				if err != nil {
					return nil, fmt.Errorf("bench: fig5cd ratio=%v algo=%s: %w", ratio, algo, err)
				}
				perAlgo[algo] = append(perAlgo[algo], Point{Experiment: "fig5cd", X: ratio, Algo: algo,
					MaxSum: m.MaxSum(), Seconds: sec, Bytes: bytes})
			}
			// Prune-GEACC is measured on its own: its points carry the search
			// statistics of Fig. 6.
			p, err := measureExact(in, core.ExactOptions{NodeLimit: exactSearchBudget})
			if err != nil {
				return nil, fmt.Errorf("bench: fig5cd ratio=%v algo=exact: %w", ratio, err)
			}
			p.Experiment, p.X, p.Algo = "fig5cd", ratio, "exact"
			perAlgo["exact"] = append(perAlgo["exact"], p)
		}
		for _, algo := range algos {
			points = append(points, average(perAlgo[algo]))
		}
	}
	return points, nil
}

// measureExact times one exact run, surfacing search statistics and whether
// the node budget tripped.
func measureExact(in *core.Instance, exopt core.ExactOptions) (Point, error) {
	start := time.Now()
	m, stats, err := core.ExactOpts(in, exopt)
	sec := time.Since(start).Seconds()
	capped := 0.0
	if errors.Is(err, core.ErrNodeLimit) {
		capped = 1
	} else if err != nil {
		return Point{}, err
	}
	if err := core.Validate(in, m); err != nil {
		return Point{}, err
	}
	return Point{
		MaxSum: m.MaxSum(), Seconds: sec,
		Extra: map[string]float64{
			"invocations":       float64(stats.Invocations),
			"complete_searches": float64(stats.CompleteSearches),
			"exact_capped":      capped,
		},
	}, nil
}

// runFig6PrunedDepth reproduces Fig. 6a: the averaged recursion depth at
// which Prune-GEACC's bound fires, for |V| = 5 with |U| = 10 and |U| = 15
// (maximum depths 50 and 75, the paper's dashed lines).
func runFig6PrunedDepth(opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	var points []Point
	for ui, nu := range []int{10, 15} {
		var reps []Point
		for r := 0; r < opt.Reps; r++ {
			in, err := fig6Instance(opt, nu, int64(ui)*1031+int64(r)*47)
			if err != nil {
				return nil, err
			}
			start := time.Now()
			m, stats, err := core.ExactOpts(in, core.ExactOptions{NodeLimit: exactSearchBudget})
			if err != nil && !errors.Is(err, core.ErrNodeLimit) {
				return nil, err
			}
			sec := time.Since(start).Seconds()
			if err := core.Validate(in, m); err != nil {
				return nil, err
			}
			reps = append(reps, Point{
				Experiment: "fig6a",
				X:          float64(in.NumUsers()),
				Algo:       "prune",
				MaxSum:     m.MaxSum(),
				Seconds:    sec,
				Extra: map[string]float64{
					"avg_pruned_depth": stats.AvgPrunedDepth(),
					"max_depth":        float64(stats.MaxDepth),
					"prunes":           float64(stats.Prunes),
				},
			})
		}
		points = append(points, average(reps))
	}
	return points, nil
}

// runFig6VsExhaustive reproduces Fig. 6b/6c/6d: running time, number of
// complete searches, and number of Search invocations of Prune-GEACC versus
// exhaustive search without pruning (|V| = 5, |U| = 10, c_v ~ Uniform[1,10]),
// sweeping the conflict density.
func runFig6VsExhaustive(opt Options) ([]Point, error) {
	opt = opt.withDefaults()
	var points []Point
	for xi, ratio := range []float64{0, 0.25, 0.5, 0.75, 1} {
		perAlgo := make(map[string][]Point)
		for r := 0; r < opt.Reps; r++ {
			in, err := fig6Instance(opt, 10, int64(xi)*1033+int64(r)*53)
			if err != nil {
				return nil, err
			}
			in.Conflicts = resampleConflicts(in, ratio, opt.Seed+int64(xi)*59+int64(r))
			for algo, exopt := range map[string]core.ExactOptions{
				"prune":      {NodeLimit: exactSearchBudget},
				"exhaustive": {DisablePruning: true, DisableWarmStart: true, NodeLimit: exactSearchBudget},
			} {
				p, err := measureExact(in, exopt)
				if err != nil {
					return nil, fmt.Errorf("bench: fig6bcd ratio=%v algo=%s: %w", ratio, algo, err)
				}
				p.Experiment, p.X, p.Algo = "fig6bcd", ratio, algo
				perAlgo[algo] = append(perAlgo[algo], p)
			}
		}
		for _, algo := range []string{"prune", "exhaustive"} {
			points = append(points, average(perAlgo[algo]))
		}
	}
	return points, nil
}

// fig6Instance builds the small exact-search workload: |V| = 5, |U| = nu
// (scaled), c_v ~ Uniform[1, 10], other parameters at TABLE III defaults.
func fig6Instance(opt Options, nu int, seedOffset int64) (*core.Instance, error) {
	cfg := dataset.DefaultSynthetic()
	cfg.NumEvents = 5
	cfg.NumUsers = opt.scaleCard(nu, 4)
	cfg.EventCapMax = 10
	cfg.Seed = opt.Seed + seedOffset
	return cfg.Generate()
}

// resampleConflicts builds a fresh conflict graph of the requested density
// for the instance's events.
func resampleConflicts(in *core.Instance, ratio float64, seed int64) *conflict.Graph {
	return conflict.Random(randx.Source(seed), in.NumEvents(), ratio)
}
