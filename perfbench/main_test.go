package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step:
// the same workloads, and the same metric names and units in both lists.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil || i >= len(workloads) {
			t.Errorf("workload %q: %v", w.Name, err)
		}
	}
	for _, c := range []struct {
		json []named
		prog []struct{ name, unit string }
	}{{doc.EndToEnd, endToEnd}, {doc.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("BENCHMARK.json lists %d metrics, the program %d", len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]", i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
		}
	}
}

func TestSolveStreamsDeterministic(t *testing.T) {
	for _, w := range workloads {
		if w.delta {
			continue
		}
		a, err := newSolveInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newSolveInputs(w, 1)
		c, _ := newSolveInputs(w, 2)
		differs := false
		for k := 0; k < 3*w.bases; k++ {
			if !bytes.Equal(a.body(k), b.body(k)) {
				t.Fatalf("%s: op %d differs between two generations with seed 1", w.name, k)
			}
			differs = differs || !bytes.Equal(a.body(k), c.body(k))
		}
		if !differs {
			t.Errorf("%s: seeds 1 and 2 give the same stream", w.name)
		}
	}
}

func TestUniqueBodiesNeverRepeat(t *testing.T) {
	for _, w := range workloads {
		if !w.unique {
			continue
		}
		in, err := newSolveInputs(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]int)
		for _, k := range append(rangeInts(0, 4000), rangeInts(warmupBase, warmupBase+2*warmupOps)...) {
			body := string(in.body(k))
			if j, ok := seen[body]; ok {
				t.Fatalf("%s: ops %d and %d send the same body", w.name, j, k)
			}
			seen[body] = k
		}
	}
}

func rangeInts(lo, hi int) []int {
	out := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestWindowedP99 checks that latency_p99_ms is the median of per-window
// p99s, with windows taken in completion order: 33 slow samples that
// complete first fill one window's tail, so the figure stays at the fast
// latency, although they would set the p99 of the whole run, and of every
// window taken in sample order.
func TestWindowedP99(t *testing.T) {
	const n = 3 * p99Window
	lat := make([]time.Duration, n)
	end := make([]time.Duration, n)
	for i := range lat {
		lat[i], end[i] = time.Millisecond, time.Duration(n+i)
		if i%91 == 0 && i/91 < 33 {
			lat[i], end[i] = time.Second, time.Duration(i)
		}
	}
	if got := windowedP99(lat, end); got != time.Millisecond {
		t.Errorf("windowed p99 = %v, want 1ms", got)
	}
}

func TestDeltaStreamsDeterministic(t *testing.T) {
	w, err := lookupWorkload("delta-persisted")
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b lane) bool {
		if len(a.ops) != len(b.ops) || !bytes.Equal(a.create, b.create) {
			return false
		}
		for i := range a.ops {
			if a.ops[i].path != b.ops[i].path || !bytes.Equal(a.ops[i].body, b.ops[i].body) {
				return false
			}
		}
		return true
	}
	for l := 0; l < clients; l++ {
		if !same(newLane(w, 1, l, 240), newLane(w, 1, l, 240)) {
			t.Errorf("lane %d: seed 1 gives two different streams", l)
		}
		if same(newLane(w, 1, l, 240), newLane(w, 2, l, 240)) {
			t.Errorf("lane %d: seeds 1 and 2 give the same stream", l)
		}
	}
	// Every block of 12 ops holds the mix exactly.
	kinds := make(map[string]int)
	for _, op := range newLane(w, 7, 0, 1200).ops {
		kinds[op.op.Kind]++
	}
	want := map[string]int{"add_event": 200, "add_user": 600, "cancel_event": 100, "remove_user": 100, "rebalance": 200}
	for k, n := range want {
		if kinds[k] != n {
			t.Errorf("%s: %d ops, want %d", k, kinds[k], n)
		}
	}
}

// TestCountsRepeat runs every workload twice, briefly, against a freshly
// built server: both runs must pass every check and agree exactly on the
// per-layer counts.
func TestCountsRepeat(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs geacc-server")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "geacc-server")
	build := exec.Command("go", "build", "-o", bin, "./cmd/geacc-server")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build geacc-server: %v\n%s", err, out)
	}
	counts := []string{
		"mincostflow.augmentations_per_solve", "core.greedy_pops_per_solve",
		"sim.kernel_pairs_per_solve", "store.wal_bytes_per_op",
	}
	for _, w := range workloads {
		var first map[string]metric
		for i := 0; i < 2; i++ {
			o := options{workload: w.name, seed: 3, seconds: 0.1, trace: true, opLimit: 40, opsPerLane: 120}
			res, err := execute(context.Background(), env{serverBin: bin, work: t.TempDir()}, o, io.Discard)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s: run %d failed its checks: %+v", w.name, i, res)
			}
			if first == nil {
				first = res.Metrics
				for _, c := range counts {
					t.Logf("%s: %s = %v", w.name, c, first[c].Value)
				}
				continue
			}
			for _, c := range counts {
				if res.Metrics[c] != first[c] {
					t.Errorf("%s: %s = %v, then %v", w.name, c, first[c].Value, res.Metrics[c].Value)
				}
			}
		}
	}
}
