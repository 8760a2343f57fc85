package main

import (
	"sort"
	"time"

	"github.com/ebsnlab/geacc/internal/obs"
)

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by spans nested inside it. Spans of one op come
// from one recorder; nesting is read off the intervals (a child starts no
// earlier and ends no later than its parent), and children that ran in
// parallel — decomposition workers — are counted once through the union
// of their intervals.
func selfTimes(spans []obs.SpanData) []time.Duration {
	type iv struct {
		s, e time.Time
		i    int
	}
	ivs := make([]iv, len(spans))
	for i, sp := range spans {
		ivs[i] = iv{sp.Start, sp.Start.Add(sp.Duration), i}
	}
	// Parents sort before their children: earlier start first, and on a
	// tie the longer span; spans finish children-first, so a later
	// completion index breaks exact ties toward the parent.
	sort.Slice(ivs, func(a, b int) bool {
		x, y := ivs[a], ivs[b]
		if !x.s.Equal(y.s) {
			return x.s.Before(y.s)
		}
		if !x.e.Equal(y.e) {
			return x.e.After(y.e)
		}
		return x.i > y.i
	})
	out := make([]time.Duration, len(spans))
	for a, p := range ivs {
		var covered time.Duration
		var curS, curE time.Time
		open := false
		for _, c := range ivs[a+1:] {
			if !c.s.Before(p.e) {
				break
			}
			if c.e.After(p.e) {
				continue // overlaps p without nesting in it
			}
			switch {
			case !open:
				curS, curE, open = c.s, c.e, true
			case c.s.After(curE):
				covered += curE.Sub(curS)
				curS, curE = c.s, c.e
			case c.e.After(curE):
				curE = c.e
			}
		}
		if open {
			covered += curE.Sub(curS)
		}
		out[p.i] = spans[p.i].Duration - covered
	}
	return out
}

// timeMetrics maps each timing metric to the spans whose self time it
// sums. The benchmark's own spans wrap each layer call; the program's
// spans inside them refine the split. Metrics with a layer split an op's
// time without overlap and group into the layers the share checks name;
// the others are parts of one of them.
var timeMetrics = []struct {
	metric, layer string
	spans         []string
}{
	{"encoding.decode_ms", "encoding", []string{"encoding.decode"}},
	{"encoding.encode_ms", "encoding", []string{"encoding.encode"}},
	{"solvecache.key_ms", "solvecache", []string{"solvecache.key"}},
	{"solvecache.lookup_ms", "solvecache", []string{"solvecache.lookup"}},
	{"core.greedy_ms", "greedy", []string{"core.solve:greedy", "solve/greedy", "greedy/init", "greedy/scan"}},
	{"core.greedy_init_ms", "", []string{"greedy/init"}},
	{"core.greedy_scan_ms", "", []string{"greedy/scan"}},
	{"core.mincostflow_ms", "mincostflow", []string{"core.solve:mincostflow", "solve/mincostflow",
		"solve/mincostflow-warm", "mincostflow/relax", "mincostflow/resolve"}},
	{"core.mincostflow_relax_ms", "", []string{"mincostflow/relax"}},
	{"core.mincostflow_resolve_ms", "", []string{"mincostflow/resolve"}},
	{"core.validate_ms", "validate", []string{"core.validate"}},
	{"decomp.rebalance_ms", "decomp", []string{"decomp.rebalance", "instance/rebalance", "decomp/solve", "decomp/component"}},
	{"decomp.build_ms", "decomp", []string{"decomp/build"}},
	{"store.append_ms", "store", []string{"store.append"}},
	{"store.apply_ms", "store", []string{"store.apply"}},
	{"store.snapshot_ms", "store", []string{"store.snapshot", "instance/snapshot"}},
}

// opMetrics sums one op's self times per timing metric, in milliseconds.
// algo names the solver behind the benchmark's core.solve span.
func opMetrics(ot opTrace, algo string) map[string]float64 {
	self := selfTimes(ot.spans)
	byName := make(map[string]time.Duration)
	for i, sp := range ot.spans {
		name := sp.Name
		if name == "core.solve" {
			name += ":" + algo
		}
		byName[name] += self[i]
	}
	out := make(map[string]float64)
	for _, tm := range timeMetrics {
		var d time.Duration
		seen := false
		for _, n := range tm.spans {
			if v, ok := byName[n]; ok {
				d += v
				seen = true
			}
		}
		if seen {
			out[tm.metric] = float64(d) / float64(time.Millisecond)
		}
	}
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// traceSummary reduces the traced ops to per-layer metrics: each timing
// and allocation metric is the median over the ops in which that layer
// ran (0 when it never ran); layer shares are of the summed self time.
type traceSummary struct {
	metrics    map[string]float64
	attributed float64            // sum over layer metrics of their median over all ops, ms
	overhead   float64            // median traced minus untraced op time, ms
	share      map[string]float64 // layer -> fraction of all traced self time
}

func summarize(ops []opTrace, algo string) traceSummary {
	per := make(map[string][]float64)
	all := make(map[string][]float64)
	layerTime := make(map[string]float64)
	var total float64
	var overhead []float64
	for _, ot := range ops {
		m := opMetrics(ot, algo)
		for k, v := range ot.allocs {
			m[k] = v
		}
		for k, v := range m {
			per[k] = append(per[k], v)
		}
		for _, tm := range timeMetrics {
			if tm.layer == "" {
				continue
			}
			all[tm.metric] = append(all[tm.metric], m[tm.metric])
			layerTime[tm.layer] += m[tm.metric]
			total += m[tm.metric]
		}
		overhead = append(overhead, float64(ot.traced-ot.plain)/float64(time.Millisecond))
	}
	sum := traceSummary{metrics: make(map[string]float64), share: make(map[string]float64)}
	for k, v := range per {
		sum.metrics[k] = median(v)
	}
	for _, v := range all {
		sum.attributed += median(v)
	}
	sum.overhead = median(overhead)
	if total > 0 {
		for l, t := range layerTime {
			sum.share[l] = t / total
		}
	}
	return sum
}
