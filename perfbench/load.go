package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ebsnlab/geacc/internal/store"
)

const (
	// clients is the closed-loop concurrency: one connection per vCPU of
	// the 2-vCPU machines the bounds were set on.
	clients = 2
	// A run starts a server and performs the workload's set-up
	// setupsBefore times before the measured phase and setupsAfter times
	// after it; setup_s is the median of all of them. The last server
	// started before the measured phase serves it.
	setupsBefore = 4
	setupsAfter  = 3
	// warmupOps per client run before the measured phase of a solve
	// workload, so pools and the heap are grown before timing.
	warmupOps = 8
	// Verified responses per run; see sampled.
	sampleStride = 7
	sampleCount  = 32
)

// httpRun is what one measured phase against the real server produced.
type httpRun struct {
	attempted, failed int64
	lat               []time.Duration
	latEnd            []time.Duration // completion of lat[i], from the start of the measured phase
	wall              time.Duration
	setups            []time.Duration

	before, after map[string]float64 // /metrics around the measured phase
	cpu           time.Duration
	allocKB       float64
	hwmKB         int64
	walBytes      int64 // delta workload only
	solves        int64 // /solve requests, or rebalances on the delta workload
	rebalances    int64

	maxsum   float64
	problems []string // failed correctness or integrity checks

	finalMaxSum map[string]float64 // delta: lane id -> final MaxSum
}

type env struct {
	serverBin string
	work      string // scratch directory inside the checkout
	client    *http.Client
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
}

func (r *httpRun) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// sampled reports whether op k's response is kept for verification: ops
// off, off+7, ... for sampleCount ops, where off = seed mod 7. The set is
// fixed by the seed, so maxsum does not depend on how many ops a run
// completes.
func sampled(seed int64, k int) bool {
	off := int((seed%sampleStride + sampleStride) % sampleStride)
	return k >= off && (k-off)%sampleStride == 0 && (k-off)/sampleStride < sampleCount
}

// setUps runs n timed set-ups — server start to the first 200 from
// /readyz plus the workload's set-up requests — and keeps the last one's
// server running.
func (r *httpRun) setUps(n int, setUp func(i int) (*serverProc, error)) (*serverProc, error) {
	var srv *serverProc
	for i := 0; i < n; i++ {
		srv.stop()
		t0 := time.Now()
		s, err := setUp(i)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, time.Since(t0))
		srv = s
	}
	return srv, nil
}

// setUpsAfter runs the set-ups that follow the measured phase and stops
// their servers. Spreading set-ups over the run keeps setup_s from
// reading a single moment of a shared machine.
func (r *httpRun) setUpsAfter(setUp func(i int) (*serverProc, error)) error {
	srv, err := r.setUps(setupsAfter, func(i int) (*serverProc, error) { return setUp(setupsBefore + i) })
	srv.stop()
	return err
}

// runSolveHTTP drives a solve workload: set-up (server start plus, for the
// repeat workload, priming every pooled body), a warm-up, then the
// closed-loop measured phase of the given length — or of exactly opLimit
// ops when opLimit > 0.
func runSolveHTTP(ctx context.Context, e env, w workload, in *solveInputs, seed int64, seconds float64, opLimit int) (*httpRun, error) {
	run := &httpRun{}
	var scratch bytes.Buffer
	setUp := func(int) (*serverProc, error) {
		srv, err := startServer(ctx, e.serverBin, "", e.client)
		if err != nil || w.unique {
			return srv, err
		}
		for b := range in.bodies {
			if code, err := post(ctx, e.client, srv.base+in.path, in.bodies[b], &scratch); err != nil || code != http.StatusOK {
				srv.stop()
				return nil, fmt.Errorf("priming body %d: status %d %s: %v", b, code, scratch.Bytes(), err)
			}
		}
		return srv, nil
	}
	srv, err := run.setUps(setupsBefore, setUp)
	defer func() { srv.stop() }()
	if err != nil {
		return nil, err
	}

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var out bytes.Buffer
			for i := 0; i < warmupOps; i++ {
				_, _ = post(ctx, e.client, srv.base+in.path, in.body(warmupBase+c*warmupOps+i), &out)
			}
		}(c)
	}
	wg.Wait()

	if err := run.scrapeBefore(ctx, e, srv); err != nil {
		return nil, err
	}
	samples := make(map[int][]byte)
	var next atomic.Int64
	var mu sync.Mutex
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Buffers are reused across requests so the client's own
			// allocation and GC stay out of the server's way.
			var body []byte
			var out bytes.Buffer
			var lat, latEnd []time.Duration
			var attempted, failed int64
			for ctx.Err() == nil {
				if opLimit == 0 && !time.Now().Before(deadline) {
					break
				}
				k := int(next.Add(1) - 1)
				if opLimit > 0 && k >= opLimit {
					break
				}
				body = in.appendBody(body, k)
				t := time.Now()
				code, err := post(ctx, e.client, srv.base+in.path, body, &out)
				d := time.Since(t)
				attempted++
				if err != nil || code/100 != 2 {
					failed++
					continue
				}
				lat = append(lat, d)
				latEnd = append(latEnd, t.Add(d).Sub(start))
				if sampled(seed, k) {
					mu.Lock()
					samples[k] = bytes.Clone(out.Bytes())
					mu.Unlock()
				}
			}
			mu.Lock()
			run.lat = append(run.lat, lat...)
			run.latEnd = append(run.latEnd, latEnd...)
			run.attempted += attempted
			run.failed += failed
			mu.Unlock()
		}()
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.solves = run.attempted - run.failed
	if err := run.scrapeAfter(ctx, e, srv); err != nil {
		return nil, err
	}
	srv.stop()
	run.checkSolveIntegrity(w)
	run.maxsum = checkSolveSamples(ctx, run, w, in, samples)
	if err := run.setUpsAfter(setUp); err != nil {
		return nil, err
	}
	return run, ctx.Err()
}

// runDeltaHTTP drives the persisted delta workload: set-up creates and
// populates one instance per lane on a fresh data directory, the measured
// phase runs each lane's fixed stream, and afterwards the server is killed
// and every lane's data directory recovered and compared.
func runDeltaHTTP(ctx context.Context, e env, w workload, lanes []lane) (*httpRun, error) {
	run := &httpRun{finalMaxSum: make(map[string]float64)}
	var scratch bytes.Buffer
	dataDir := func(i int) string { return filepath.Join(e.work, fmt.Sprintf("data-%d", i)) }
	setUp := func(i int) (*serverProc, error) {
		srv, err := startServer(ctx, e.serverBin, dataDir(i), e.client)
		if err != nil {
			return nil, err
		}
		for _, ln := range lanes {
			if code, err := post(ctx, e.client, srv.base+"/instances", ln.create, &scratch); err != nil || code != http.StatusCreated {
				srv.stop()
				return nil, fmt.Errorf("create %s: status %d %s: %v", ln.id, code, scratch.Bytes(), err)
			}
			for _, op := range ln.setup {
				if code, err := post(ctx, e.client, srv.base+op.path, op.body, &scratch); err != nil || code != http.StatusOK {
					srv.stop()
					return nil, fmt.Errorf("populate %s: status %d %s: %v", ln.id, code, scratch.Bytes(), err)
				}
			}
		}
		return srv, nil
	}
	srv, err := run.setUps(setupsBefore, setUp)
	defer func() { srv.stop() }()
	if err != nil {
		return nil, err
	}
	dir := dataDir(setupsBefore - 1)

	walBefore, err := walBytes(dir, lanes)
	if err != nil {
		return nil, err
	}
	if err := run.scrapeBefore(ctx, e, srv); err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := time.Now()
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln lane) {
			defer wg.Done()
			var out bytes.Buffer
			lat := make([]time.Duration, 0, len(ln.ops))
			latEnd := make([]time.Duration, 0, len(ln.ops))
			var attempted, failed, rebalances int64
			for _, op := range ln.ops {
				if ctx.Err() != nil {
					break
				}
				t := time.Now()
				code, err := post(ctx, e.client, srv.base+op.path, op.body, &out)
				d := time.Since(t)
				attempted++
				if op.op.Kind == store.OpRebalance {
					rebalances++
				}
				if err != nil || code/100 != 2 {
					failed++
					continue
				}
				lat = append(lat, d)
				latEnd = append(latEnd, t.Add(d).Sub(start))
			}
			mu.Lock()
			run.lat = append(run.lat, lat...)
			run.latEnd = append(run.latEnd, latEnd...)
			run.attempted += attempted
			run.failed += failed
			run.rebalances += rebalances
			mu.Unlock()
		}(ln)
	}
	wg.Wait()
	run.wall = time.Since(start)
	run.solves = run.rebalances
	if err := run.scrapeAfter(ctx, e, srv); err != nil {
		return nil, err
	}
	walAfter, err := walBytes(dir, lanes)
	if err != nil {
		return nil, err
	}
	run.walBytes = walAfter - walBefore
	if run.walBytes <= 0 {
		run.fail("delta-persisted wrote no WAL bytes")
	}

	final := make(map[string][]byte)
	for _, ln := range lanes {
		b, err := get(ctx, e.client, srv.base+"/instances/"+ln.id)
		if err != nil {
			return nil, err
		}
		var st struct {
			MaxSum   float64         `json:"max_sum"`
			Matching json.RawMessage `json:"matching"`
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return nil, fmt.Errorf("decode GET /instances/%s: %w", ln.id, err)
		}
		final[ln.id] = st.Matching
		run.finalMaxSum[ln.id] = st.MaxSum
		run.maxsum += st.MaxSum
	}
	srv.stop()
	for _, ln := range lanes {
		checkRecovery(ctx, run, filepath.Join(dir, ln.id), final[ln.id])
	}
	if err := run.setUpsAfter(setUp); err != nil {
		return nil, err
	}
	return run, ctx.Err()
}

// walBytes sums the lanes' op-log sizes. The log is append-only (snapshots
// never rewrite it), so the difference of two readings is what was written.
func walBytes(dataDir string, lanes []lane) (int64, error) {
	var n int64
	for _, ln := range lanes {
		fi, err := os.Stat(filepath.Join(dataDir, ln.id, "ops.jsonl"))
		if err != nil {
			return 0, err
		}
		n += fi.Size()
	}
	return n, nil
}

func (r *httpRun) scrapeBefore(ctx context.Context, e env, srv *serverProc) error {
	var err error
	if r.before, err = srv.metrics(ctx, e.client); err != nil {
		return err
	}
	alloc, err := srv.totalAllocKB(ctx, e.client)
	if err != nil {
		return err
	}
	cpu, err := srv.cpu()
	if err != nil {
		return err
	}
	// Stored negated: scrapeAfter adds its readings to make the differences.
	r.allocKB, r.cpu = -alloc, -cpu
	return nil
}

func (r *httpRun) scrapeAfter(ctx context.Context, e env, srv *serverProc) error {
	cpu, err := srv.cpu()
	if err != nil {
		return err
	}
	alloc, err := srv.totalAllocKB(ctx, e.client)
	if err != nil {
		return err
	}
	r.allocKB += alloc
	r.cpu += cpu
	if r.hwmKB, err = srv.hwmKB(); err != nil {
		return err
	}
	r.after, err = srv.metrics(ctx, e.client)
	return err
}

// delta is a /metrics counter's change over the measured phase.
func (r *httpRun) delta(series string) float64 { return r.after[series] - r.before[series] }

func (r *httpRun) hitRatio() float64 {
	hits := r.delta("geacc_solve_cache_hits_total")
	lookups := hits + r.delta("geacc_solve_cache_misses_total")
	if lookups == 0 {
		return 0
	}
	return hits / lookups
}

func (r *httpRun) perSolve(series string) float64 {
	if r.solves == 0 {
		return 0
	}
	return r.delta(series) / float64(r.solves)
}

// checkSolveIntegrity fails a run whose traffic did not exercise the path
// its name promises: unique workloads must never hit the solve cache, the
// repeat workload must (almost) always hit and never run greedy.
func (r *httpRun) checkSolveIntegrity(w workload) {
	hr := r.hitRatio()
	switch {
	case w.unique && hr != 0:
		r.fail("%s: solvecache.hit_ratio = %v, want 0", w.name, hr)
	case !w.unique && hr < 0.99:
		r.fail("%s: solvecache.hit_ratio = %v, want >= 0.99", w.name, hr)
	}
	if pops := r.perSolve("geacc_greedy_pops_total"); !w.unique && pops > 0 {
		r.fail("%s: core.greedy_pops_per_solve = %v, want 0", w.name, pops)
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*p+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	return sorted[min(i, len(sorted)-1)]
}

// p99Window is the least number of samples latency_p99_ms takes one p99
// over, so that at least ten samples lie beyond it.
const p99Window = 1000

// windowedP99 splits the samples, in completion order, into as many equal
// windows of at least p99Window samples as they fill, and returns the
// median of the windows' p99s. A burst of noise on a shared machine then
// moves one window's p99 rather than the reported figure.
func windowedP99(lat, end []time.Duration) time.Duration {
	idx := make([]int, len(lat))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return end[idx[a]] < end[idx[b]] })
	k := max(1, len(lat)/p99Window)
	p99s := make([]time.Duration, k)
	for w := range p99s {
		win := make([]time.Duration, 0, len(lat)/k+1)
		for _, i := range idx[w*len(idx)/k : (w+1)*len(idx)/k] {
			win = append(win, lat[i])
		}
		sortDurations(win)
		p99s[w] = percentile(win, 0.99)
	}
	sortDurations(p99s)
	if k%2 == 1 {
		return p99s[k/2]
	}
	return (p99s[k/2-1] + p99s[k/2]) / 2
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}
