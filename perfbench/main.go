// Command perfbench is the repository's end-to-end benchmark. It starts
// the geacc-server binary built from this checkout as a child process,
// drives one named workload at it from two closed-loop clients, checks the
// answers, and prints one JSON result line.
//
//	perfbench -server <geacc-server binary> -work <scratch dir> \
//	    --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// perfbench/run.sh builds both binaries and runs this from the root of a
// checkout. With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the same HTTP run supplies the per-layer counters, and a
// separate single-lane run through the layers' public functions, with a
// span around each call, supplies per-layer timings. Workloads, metrics,
// seeds and the layer map are described in perfbench/NOTES.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// defaultSeed is the seed claims are measured on; NOTES.md records the
// held-out seed that confirms them.
const defaultSeed = 1

// runDeadline keeps every run, set-up and checks included, inside the
// three minutes one invocation may take.
const runDeadline = 170 * time.Second

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// opLimit > 0 replaces the timed solve phase with exactly that many
	// ops; opsPerLane > 0 overrides the delta stream length. Tests use
	// them for short deterministic runs.
	opLimit, opsPerLane int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var e env
	var o options
	var trace int
	fs.StringVar(&e.serverBin, "server", "", "geacc-server binary to benchmark")
	fs.StringVar(&e.work, "work", "", "scratch directory for data directories and trace files")
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the measured phase of solve workloads")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run; 0 end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	if e.serverBin == "" || e.work == "" || o.workload == "" || o.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -server, -work, --workload, --seconds > 0 and --trace 0|1")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, runDeadline)
	defer cancel()
	res, err := execute(ctx, e, o, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one workload and builds its result line.
func execute(ctx context.Context, e env, o options, stderr io.Writer) (*result, error) {
	w, err := lookupWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	abs, err := filepath.Abs(e.work)
	if err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(abs, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e.work = work
	e.client = newClient()
	defer e.client.CloseIdleConnections()

	var run *httpRun
	var in *solveInputs
	var lanes []lane
	if w.delta {
		n := w.opsPerLane
		if o.opsPerLane > 0 {
			n = o.opsPerLane
		}
		for l := 0; l < clients; l++ {
			lanes = append(lanes, newLane(w, o.seed, l, n))
		}
		run, err = runDeltaHTTP(ctx, e, w, lanes)
	} else {
		if in, err = newSolveInputs(w, o.seed); err != nil {
			return nil, err
		}
		run, err = runSolveHTTP(ctx, e, w, in, o.seed, o.seconds, o.opLimit)
	}
	if err != nil {
		return nil, err
	}
	if len(run.lat) < 1000 {
		fmt.Fprintf(stderr, "perfbench: only %d samples; latency_p99_ms has fewer than 10 beyond it\n", len(run.lat))
	}
	res := &result{Attempted: run.attempted, Failed: run.failed}
	if o.trace {
		var ops []opTrace
		if w.delta {
			var maxSum float64
			ops, maxSum, err = traceDelta(ctx, w, lanes[0], filepath.Join(work, "trace"))
			if err == nil && maxSum != run.finalMaxSum[lanes[0].id] {
				run.fail("in-process delta pipeline ends at MaxSum %v, the server at %v", maxSum, run.finalMaxSum[lanes[0].id])
			}
		} else {
			ops, err = traceSolve(ctx, w, in, o.seconds/4)
		}
		if err != nil {
			return nil, err
		}
		if err := writeSpans(filepath.Join(abs, "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed)), ops); err != nil {
			return nil, err
		}
		sum := summarize(ops, w.algo)
		layers := make([]string, 0, len(sum.share))
		for l := range sum.share {
			layers = append(layers, l)
		}
		sort.Strings(layers)
		for _, l := range layers {
			fmt.Fprintf(stderr, "perfbench: %s carries %.3f of traced self time\n", l, sum.share[l])
		}
		checkLayerShares(run, w, sum)
		res.Metrics = layerMetrics(run, w, sum)
	} else {
		res.Metrics = endToEndMetrics(run)
	}
	for _, p := range run.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	res.Correct = len(run.problems) == 0 && run.failed == 0
	return res, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// endToEnd lists the end-to-end metrics with their units, in report order.
var endToEnd = []struct{ name, unit string }{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"maxsum", "similarity"},
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"rss_peak_mb", "MiB"},
}

func endToEndMetrics(run *httpRun) map[string]metric {
	lat := append([]time.Duration(nil), run.lat...)
	sortDurations(lat)
	setups := append([]time.Duration(nil), run.setups...)
	sortDurations(setups)
	done := float64(len(run.lat))
	v := map[string]float64{
		"throughput_rps":  done / run.wall.Seconds(),
		"latency_p50_ms":  ms(percentile(lat, 0.50)),
		"latency_p99_ms":  ms(windowedP99(run.lat, run.latEnd)),
		"maxsum":          run.maxsum,
		"setup_s":         setups[len(setups)/2].Seconds(),
		"cpu_ms_per_op":   ms(run.cpu) / done,
		"alloc_kb_per_op": run.allocKB / done,
		"rss_peak_mb":     float64(run.hwmKB) / 1024,
	}
	out := make(map[string]metric, len(endToEnd))
	for _, m := range endToEnd {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// perLayer lists the per-layer metrics with their units, in report order.
var perLayer = []struct{ name, unit string }{
	{"encoding.decode_ms", "ms"},
	{"encoding.decode_alloc_kb", "KiB"},
	{"encoding.encode_ms", "ms"},
	{"solvecache.key_ms", "ms"},
	{"solvecache.lookup_ms", "ms"},
	{"solvecache.hit_ratio", "ratio"},
	{"solvecache.evictions_per_op", "count/op"},
	{"core.greedy_ms", "ms"},
	{"core.greedy_init_ms", "ms"},
	{"core.greedy_scan_ms", "ms"},
	{"core.greedy_alloc_kb", "KiB"},
	{"core.greedy_pops_per_solve", "count/op"},
	{"core.greedy_accept_ratio", "ratio"},
	{"sim.kernel_pairs_per_solve", "count/op"},
	{"core.mincostflow_ms", "ms"},
	{"core.mincostflow_relax_ms", "ms"},
	{"core.mincostflow_resolve_ms", "ms"},
	{"core.mincostflow_alloc_kb", "KiB"},
	{"mincostflow.augmentations_per_solve", "count/op"},
	{"core.validate_ms", "ms"},
	{"decomp.rebalance_ms", "ms"},
	{"decomp.build_ms", "ms"},
	{"decomp.components_per_rebalance", "count/op"},
	{"store.append_ms", "ms"},
	{"store.apply_ms", "ms"},
	{"store.snapshot_ms", "ms"},
	{"store.wal_bytes_per_op", "bytes/op"},
	{"server.unattributed_ms", "ms"},
	{"server.admission_wait_ms", "ms"},
	{"trace.overhead_ms", "ms"},
}

// layerMetrics combines the HTTP run's counter deltas with the traced
// run's timing and allocation medians.
func layerMetrics(run *httpRun, w workload, sum traceSummary) map[string]metric {
	v := make(map[string]float64, len(perLayer))
	for k, x := range sum.metrics {
		v[k] = x
	}
	done := float64(len(run.lat))
	v["solvecache.hit_ratio"] = run.hitRatio()
	v["solvecache.evictions_per_op"] = run.delta("geacc_solve_cache_evictions_total") / done
	v["core.greedy_pops_per_solve"] = run.perSolve("geacc_greedy_pops_total")
	if pops := run.delta("geacc_greedy_pops_total"); pops > 0 {
		v["core.greedy_accept_ratio"] = run.delta("geacc_greedy_accepted_total") / pops
	}
	v["sim.kernel_pairs_per_solve"] = run.perSolve("geacc_sim_kernel_pairs_total")
	v["mincostflow.augmentations_per_solve"] = run.perSolve("geacc_mcflow_augmentations_total")
	if run.rebalances > 0 {
		v["decomp.components_per_rebalance"] = run.delta("geacc_decomp_components_total") / float64(run.rebalances)
	}
	v["store.wal_bytes_per_op"] = float64(run.walBytes) / done
	if n := run.delta("geacc_admission_queue_wait_seconds_count"); n > 0 {
		v["server.admission_wait_ms"] = 1000 * run.delta("geacc_admission_queue_wait_seconds_sum") / n
	}
	lat := append([]time.Duration(nil), run.lat...)
	sortDurations(lat)
	v["server.unattributed_ms"] = ms(percentile(lat, 0.50)) - sum.attributed
	v["trace.overhead_ms"] = sum.overhead
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{v[m.name], m.unit}
	}
	return out
}

// checkLayerShares fails a traced run whose self time does not sit in the
// layers the workload is named for.
func checkLayerShares(run *httpRun, w workload, sum traceSummary) {
	s := sum.share
	switch {
	case w.delta:
		if s["mincostflow"] > 0 {
			run.fail("%s: mincostflow ran (%.3f of self time)", w.name, s["mincostflow"])
		}
		if s["store"] == 0 || s["decomp"] == 0 {
			run.fail("%s: store (%.3f) and decomp (%.3f) must both carry self time", w.name, s["store"], s["decomp"])
		}
	case w.algo == "mincostflow":
		if s["mincostflow"] < 0.5 {
			run.fail("%s: mincostflow carries %.3f of self time, want >= 0.5", w.name, s["mincostflow"])
		}
	case w.unique:
		if s["encoding"]+s["greedy"] < 0.5 {
			run.fail("%s: encoding+greedy carry %.3f of self time, want >= 0.5", w.name, s["encoding"]+s["greedy"])
		}
	default:
		if s["encoding"]+s["solvecache"] < 0.5 {
			run.fail("%s: encoding+solvecache carry %.3f of self time, want >= 0.5", w.name, s["encoding"]+s["solvecache"])
		}
		if s["greedy"] > 0 {
			run.fail("%s: greedy ran on the memo-hit path", w.name)
		}
	}
}
