package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"github.com/ebsnlab/geacc/internal/buildinfo"
	"github.com/ebsnlab/geacc/internal/core"
	"github.com/ebsnlab/geacc/internal/decomp"
	"github.com/ebsnlab/geacc/internal/encoding"
	"github.com/ebsnlab/geacc/internal/obs"
	"github.com/ebsnlab/geacc/internal/partition"
	"github.com/ebsnlab/geacc/internal/report"
	"github.com/ebsnlab/geacc/internal/solvecache"
)

// MaxRequestBytes bounds request bodies; larger instances should use the
// CLI tools.
const MaxRequestBytes = 64 << 20

// statusClientClosedRequest mirrors nginx's non-standard 499: the client
// disconnected (or timed out) before the solver finished, and the request
// context's cancellation aborted the run.
const statusClientClosedRequest = 499

// exactHTTPAreaLimit bounds exact (Prune-GEACC) searches over HTTP: the
// |V|·|U| area of the instance (or, decomposed, of its largest component)
// may not exceed it. The gating decision is surfaced in the diagnostics
// artifact as Diagnostics.ExactGate.
const exactHTTPAreaLimit = 200

// Config tunes the service handler. The zero value is valid: default
// logger, no persistence, default snapshot cadence.
type Config struct {
	// Logger receives request and domain logs; nil means slog.Default().
	Logger *slog.Logger
	// DataDir enables persistence: every named instance gets a write-ahead
	// op log and periodic snapshots under this directory, and NewWithConfig
	// replays whatever it finds there before serving. Empty means instances
	// are ephemeral (they die with the process).
	DataDir string
	// SnapshotEvery is how many logged ops an instance accumulates before
	// its log is folded into a fresh snapshot; <= 0 means
	// DefaultSnapshotEvery.
	SnapshotEvery int
	// LazyReplay moves startup replay off the constructor and into a
	// background goroutine: the handler is returned (and can listen)
	// immediately, /readyz answers 503 until every persisted instance has
	// been replayed, and the instance endpoints refuse with 503 +
	// Retry-After in the meantime. geacc-server enables it so a process
	// restart behind a load balancer starts failing its readiness probe
	// instead of its TCP connects. The default (false) replays
	// synchronously, which is what tests and embedders usually want.
	LazyReplay bool
	// MaxInflight bounds the solver-heavy requests (/solve, /trace,
	// /report, rebalances) running concurrently; <= 0 means
	// DefaultMaxInflight. The next QueueDepth requests wait up to
	// QueueTimeout for a slot; beyond that the service sheds with 429 +
	// Retry-After. /readyz reports overload from the same limits.
	MaxInflight int
	// QueueDepth bounds how many solver requests may wait for a slot.
	// 0 means DefaultQueueDepth; negative disables queueing (overload
	// sheds as soon as every slot is busy).
	QueueDepth int
	// QueueTimeout is the longest a queued solver request waits before it
	// is shed; <= 0 means DefaultQueueTimeout.
	QueueTimeout time.Duration
	// SolveCacheEntries bounds the content-addressed /solve memo cache
	// (see internal/solvecache): 0 means DefaultSolveCacheEntries, negative
	// disables solve caching service-wide (including the per-instance
	// rebalance caches). Requests can opt out individually with ?cache=0.
	SolveCacheEntries int
	// Shard, when non-nil, makes approximate sharding of giant components
	// (internal/partition) the service default for /solve and rebalances
	// (geacc-server -approx-shard). Requests can still opt out with
	// ?approx_shard=0 or override the tuning with the shard_* params. Nil
	// means sharding only runs when a request asks with ?approx_shard=1.
	Shard *partition.Options

	// replayHold, when non-nil with LazyReplay, blocks the background
	// replay until the channel is closed — a test hook for observing the
	// not-yet-ready window deterministically.
	replayHold chan struct{}
	// admitHold, when non-nil, parks every admitted solver request until
	// the channel is closed — a test hook for filling the admission window
	// and observing shed behavior deterministically.
	admitHold chan struct{}
}

// New returns the service's handler, wrapped in the metrics middleware.
// Request logs go to slog's process default; geacc-server passes its
// flag-configured logger through NewWithConfig. Besides the stateless
// solver endpoints and the stateful /instances surface it serves the
// Prometheus text exposition at GET /metrics and the expvar page (the
// "geacc" metrics registry plus Go runtime vars) at GET /debug/vars; the
// heavier pprof surface is only on DebugHandler.
func New() http.Handler {
	return NewWithLogger(slog.Default())
}

// NewWithLogger is New with an explicit request logger. A nil logger
// falls back to slog.Default(). Instances are ephemeral; use
// NewWithConfig for persistence.
func NewWithLogger(log *slog.Logger) http.Handler {
	h, err := NewWithConfig(Config{Logger: log})
	if err != nil {
		// Unreachable: only a configured DataDir can fail to open.
		panic(err)
	}
	return h
}

// NewWithConfig builds the full service handler: the stateless solver
// endpoints plus the long-lived /instances registry, replaying any
// persisted instances found under cfg.DataDir before it returns (or, with
// cfg.LazyReplay, in the background while /readyz reports not-ready).
func NewWithConfig(cfg Config) (http.Handler, error) {
	h, _, err := newHandler(cfg)
	return h, err
}

// newHandler is NewWithConfig plus the service it wired — the in-package
// entry tests use to reach the rolling windows and readiness state behind
// the handler.
func newHandler(cfg Config) (http.Handler, *service, error) {
	log := cfg.Logger
	if log == nil {
		log = slog.Default()
	}
	svc, err := newService(log, cfg)
	if err != nil {
		return nil, nil, err
	}
	setBuildInfoMetric()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", handleHealthz)
	mux.HandleFunc("GET /readyz", svc.handleReadyz)
	mux.HandleFunc("GET /statusz", svc.handleStatusz)
	mux.HandleFunc("GET /version", handleVersion)
	mux.HandleFunc("GET /algorithms", handleAlgorithms)
	mux.HandleFunc("POST /solve", svc.handleSolve)
	mux.HandleFunc("POST /trace", svc.handleTrace)
	mux.HandleFunc("POST /report", svc.handleReport)
	mux.HandleFunc("POST /validate", handleValidate)
	mux.HandleFunc("GET /metrics", svc.handleMetrics)
	mux.Handle("GET /debug/vars", expvar.Handler())
	svc.register(mux)
	return withMetrics(withLogging(mux, log), svc), svc, nil
}

// Process-identity metrics: a constant-1 gauge whose labels carry the build
// identity (join on it to know which version served a scrape) and the
// process uptime, refreshed at scrape time.
var (
	buildInfoOnce sync.Once
	processUptime = obs.Default().FloatGauge("geacc_process_uptime_seconds")
)

func setBuildInfoMetric() {
	buildInfoOnce.Do(func() {
		bi := buildinfo.Get()
		obs.Default().Gauge(obs.Label("geacc_build_info",
			"version", bi.Version, "revision", bi.Revision, "goversion", bi.GoVersion)).Set(1)
	})
}

// handleMetrics serves the obs registry in the Prometheus text exposition
// format — the scrape target for Prometheus-compatible collectors; the
// expvar page at /debug/vars serves the same instruments as JSON. The
// registry families are followed by the service's rolling SLO windows
// (geacc_http_window_seconds, geacc_solve_window_seconds).
func (s *service) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	processUptime.Set(buildinfo.Uptime().Seconds())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = obs.Default().WritePrometheus(w)
	_ = obs.WritePrometheusWindows(w, s.windowsSnapshot())
}

// errorJSON is the error envelope. RequestID echoes the X-Request-ID the
// middleware assigned, so a client-side error report names the exact
// request to grep the server logs for.
type errorJSON struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func writeError(w http.ResponseWriter, r *http.Request, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorJSON{
		Error:     err.Error(),
		RequestID: obs.RequestIDFrom(r.Context()),
	})
}

// solveErrorStatus maps a solver error to an HTTP status: context
// cancellation (the client went away) and deadline expiry report as 499,
// anything else as fallback.
func solveErrorStatus(err error, fallback int) int {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return statusClientClosedRequest
	}
	return fallback
}

func writeJSON(w http.ResponseWriter, v any) {
	writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus writes v with an explicit status code. Content-Type must
// be set before WriteHeader flushes the header block, so non-200 JSON
// responses still carry it.
func writeJSONStatus(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

func handleAlgorithms(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"algorithms": append(core.SolverNames(), "portfolio"),
	})
}

// SolveResponse is the /solve payload. Diagnostics is present only when
// the request asked for it with ?diag=1.
type SolveResponse struct {
	Matching    encoding.MatchingJSON `json:"matching"`
	Algo        string                `json:"algo"`
	Seconds     float64               `json:"seconds"`
	Events      int                   `json:"events"`
	Users       int                   `json:"users"`
	Diagnostics *core.Diagnostics     `json:"diagnostics,omitempty"`
}

// wantDiag reports whether the request opted into the per-solve
// diagnostics artifact (instance shape, optimality gap, phase timings).
func wantDiag(r *http.Request) bool {
	return boolParam(r, "diag")
}

// wantDecompose reports whether the request asked for the decomposed solve
// path (?decompose=1): shard along conflict/similarity components, solve in
// parallel (pool size via ?workers=n), merge.
func wantDecompose(r *http.Request) bool {
	return boolParam(r, "decompose")
}

func boolParam(r *http.Request, name string) bool {
	switch r.URL.Query().Get(name) {
	case "1", "true", "yes":
		return true
	}
	return false
}

// shardOptionsFromQuery resolves the approximate-sharding parameters:
// ?approx_shard=1 turns the feature on (and implies the decomposed path),
// ?approx_shard=0 opts out of a service-wide default, and ?shard_max_area=,
// ?shard_strategy= (modularity or bfs) plus ?shard_drift_budget= tune it.
// Returns nil when sharding is off for this request.
func (s *service) shardOptionsFromQuery(r *http.Request) (*partition.Options, error) {
	on := s.shardDefault != nil
	switch r.URL.Query().Get("approx_shard") {
	case "1", "true", "yes":
		on = true
	case "":
		// keep the service default
	default:
		return nil, nil
	}
	if !on {
		return nil, nil
	}
	opt := partition.Options{}
	if s.shardDefault != nil {
		opt = *s.shardDefault
	}
	if qs := r.URL.Query().Get("shard_max_area"); qs != "" {
		v, err := strconv.ParseInt(qs, 10, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("server: bad shard_max_area %q (want a positive integer)", qs)
		}
		opt.MaxArea = v
	}
	strat, err := partition.ParseStrategy(r.URL.Query().Get("shard_strategy"))
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	opt.Strategy = strat
	if qs := r.URL.Query().Get("shard_drift_budget"); qs != "" {
		v, err := strconv.ParseFloat(qs, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("server: bad shard_drift_budget %q (want a positive float)", qs)
		}
		opt.DriftBudget = v
	}
	o := opt.Normalized()
	return &o, nil
}

// cacheBypassed reports whether the request opted out of the solve cache
// with ?cache=0 (also "false"/"no"). The cache is opt-out rather than
// opt-in because hits are bit-for-bit identical to fresh solves.
func cacheBypassed(r *http.Request) bool {
	switch r.URL.Query().Get("cache") {
	case "0", "false", "no":
		return true
	}
	return false
}

// solveSimID canonicalizes a decoded instance's similarity identity for
// cache keying. Matrix instances return "" — their values are hashed
// directly from the content, so the key needs no identity.
func solveSimID(info encoding.SimInfo) string {
	if info.Kind == encoding.SimMatrix {
		return ""
	}
	return fmt.Sprintf("%s/%d/%v", info.Kind, info.Dim, info.MaxT)
}

func (s *service) handleSolve(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	in, simInfo, err := encoding.DecodeInstanceMeta(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	algo := r.URL.Query().Get("algo")
	if algo == "" {
		algo = "greedy"
	}
	var seed int64 = 1
	if qs := r.URL.Query().Get("seed"); qs != "" {
		seed, err = strconv.ParseInt(qs, 10, 64)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("server: bad seed: %w", err))
			return
		}
	}
	diag := wantDiag(r)
	decompose := wantDecompose(r)
	shard, err := s.shardOptionsFromQuery(r)
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	if shard != nil {
		decompose = true // sharding rides on the decomposition worker pool
	}
	workers := 0
	if qs := r.URL.Query().Get("workers"); qs != "" {
		workers, err = strconv.Atoi(qs)
		if err != nil {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("server: bad workers: %w", err))
			return
		}
	}
	if decompose && algo == "portfolio" {
		writeError(w, r, http.StatusBadRequest,
			errors.New("server: decompose does not compose with the portfolio (it already parallelizes)"))
		return
	}
	// Validate the algorithm before the first window observation: window
	// series are labeled by algo, and only registry names may mint one (an
	// attacker probing ?algo=... must not grow the label space).
	if algo != "portfolio" {
		if _, lerr := core.LookupSolver(algo); lerr != nil {
			writeError(w, r, http.StatusBadRequest, lerr)
			return
		}
	}

	// Content-addressed memoization: a hit serves the stored response —
	// matching, diagnostics, even the original solve's timing — verbatim,
	// which is by construction bit-for-bit what a fresh solve of the same
	// content would produce. Hits happen before the solve window mints an
	// observation (nothing was solved). The portfolio is excluded, although
	// its result is deterministic per content and seed: core.PortfolioCtx
	// waits for every member and picks the best in member order.
	var cacheKey solvecache.Key
	cacheUsable := false
	if s.solveCache != nil && algo != "portfolio" && !cacheBypassed(r) {
		spec := solvecache.KeySpec{
			Algo:      algo,
			Seed:      seed,
			SimID:     solveSimID(simInfo),
			Decompose: decompose,
			Workers:   workers,
			Diag:      diag,
		}
		if shard != nil {
			spec.ApproxShard = true
			spec.ShardMaxArea = shard.MaxArea
			spec.ShardStrategy = string(shard.Strategy)
			spec.ShardDriftBudget = shard.DriftBudget
		}
		cacheKey, cacheUsable = solvecache.InstanceKey(in, spec)
		if cacheUsable {
			if v, ok := s.solveCache.Get(cacheKey); ok {
				requestLogger(r).Info("solve cache hit",
					"algo", algo, "events", in.NumEvents(), "users", in.NumUsers())
				writeJSON(w, v.(SolveResponse))
				return
			}
		}
	}

	// The request context travels into the solver: a client disconnect
	// cancels long MinCostFlow sweeps and exact searches instead of
	// burning the worker on an answer nobody will read. Diagnosed
	// requests additionally carry a span recorder so phase timings land
	// in the artifact.
	ctx := r.Context()
	var rec *obs.Recorder
	var countersBefore map[string]int64
	if diag {
		rec = obs.NewRecorder()
		ctx = obs.ContextWithRecorder(ctx, rec)
		countersBefore = obs.Default().Counters()
	}
	start := time.Now()
	// The solver window tracks wall-clock and failures per algorithm; a
	// request that dies after this point (solver error, infeasible result)
	// counts toward the algo's error rate.
	solveOK := false
	defer func() {
		s.solveWindow(algo).Observe(time.Since(start).Seconds(), !solveOK)
	}()
	var m *core.Matching
	var d *core.Diagnostics
	if algo == "portfolio" {
		m, _, err = core.PortfolioCtx(ctx, in,
			[]string{"greedy", "mincostflow", "random-v", "random-u"}, seed)
		if err != nil {
			writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
			return
		}
		if diag {
			d = core.BuildDiagnostics(algo, in, m, time.Since(start), rec.Spans(),
				obs.DiffCounters(countersBefore, obs.Default().Counters()))
		}
	} else {
		if decompose {
			dd, derr := decomp.DecomposeContext(ctx, in)
			if derr != nil {
				writeError(w, r, solveErrorStatus(derr, http.StatusInternalServerError), derr)
				return
			}
			// The exact budget applies per component: decomposition is exactly
			// what makes larger instances exact-solvable over HTTP. The gating
			// decision — measured area against the limit — is surfaced in the
			// 422 message and, for admitted diagnosed requests, in
			// Diagnostics.ExactGate.
			var gate *core.ExactGateStats
			if algo == "exact" {
				area := dd.MaxComponentArea()
				gate = &core.ExactGateStats{ComponentArea: area, Limit: exactHTTPAreaLimit}
				if area > exactHTTPAreaLimit {
					gate.Gated = true
					writeError(w, r, http.StatusUnprocessableEntity,
						fmt.Errorf("server: exact search is limited to component |V|·|U| <= %d over HTTP (largest component area %d); use the CLI",
							exactHTTPAreaLimit, area))
					return
				}
			}
			dopt := decomp.Options{Workers: workers, Seed: seed, Shard: shard}
			m, err = dd.SolveContext(ctx, algo, dopt)
			if err != nil {
				writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
				return
			}
			if diag {
				d = core.BuildDiagnostics(algo, in, m, time.Since(start), rec.Spans(),
					obs.DiffCounters(countersBefore, obs.Default().Counters()))
				d.Decomposition = dd.Stats(workers)
				d.ExactGate = gate
				if pst := dd.PartitionStats(); pst != nil {
					// BoundLoss: measured loss vs the unsharded Corollary 1
					// relaxation bound, i.e. this run's diagnostics gap.
					pst.BoundLoss = d.Gap
					d.Partition = pst
				}
			}
		} else {
			area := int64(in.NumEvents()) * int64(in.NumUsers())
			var gate *core.ExactGateStats
			if algo == "exact" {
				gate = &core.ExactGateStats{ComponentArea: area, Limit: exactHTTPAreaLimit}
				if area > exactHTTPAreaLimit {
					gate.Gated = true
					writeError(w, r, http.StatusUnprocessableEntity,
						fmt.Errorf("server: exact search is limited to |V|·|U| <= %d over HTTP (instance area %d); use decompose or the CLI",
							exactHTTPAreaLimit, area))
					return
				}
			}
			rng := rand.New(rand.NewSource(seed))
			if diag {
				m, d, err = core.SolveDiagnostics(ctx, algo, in, rng)
			} else {
				m, err = core.SolveContext(ctx, algo, in, rng)
			}
			if err != nil {
				writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
				return
			}
			if d != nil {
				d.ExactGate = gate
			}
		}
	}
	elapsed := time.Since(start).Seconds()
	if err := core.Validate(in, m); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	solveOK = true

	logAttrs := []any{
		"algo", algo, "events", in.NumEvents(), "users", in.NumUsers(),
		"pairs", m.Size(), "max_sum", m.MaxSum(), "seconds", elapsed,
	}
	if d != nil {
		logAttrs = append(logAttrs, "gap", d.Gap, "relaxed_upper_bound", d.RelaxedUpperBound)
	}
	requestLogger(r).Info("solve", logAttrs...)

	var buf bytes.Buffer
	if err := encoding.EncodeMatching(&buf, m); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	var mj encoding.MatchingJSON
	if err := json.Unmarshal(buf.Bytes(), &mj); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	resp := SolveResponse{
		Matching:    mj,
		Algo:        algo,
		Seconds:     elapsed,
		Events:      in.NumEvents(),
		Users:       in.NumUsers(),
		Diagnostics: d,
	}
	if cacheUsable {
		s.solveCache.Put(cacheKey, resp)
	}
	writeJSON(w, resp)
}

// TraceResponse is the /trace payload: the greedy arrangement plus every
// heap-pop decision in order (the paper's Example 3 narrative, as data).
type TraceResponse struct {
	Matching encoding.MatchingJSON `json:"matching"`
	Steps    []TraceStepJSON       `json:"steps"`
}

// TraceStepJSON is one serialized greedy decision.
type TraceStepJSON struct {
	V        int     `json:"v"`
	U        int     `json:"u"`
	Sim      float64 `json:"sim"`
	Accepted bool    `json:"accepted"`
	Reason   string  `json:"reason,omitempty"`
}

func (s *service) handleTrace(w http.ResponseWriter, r *http.Request) {
	release, ok := s.admit(w, r)
	if !ok {
		return
	}
	defer release()
	in, err := encoding.DecodeInstance(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "steps":
		// The classic decision log below.
	case "chrome":
		handleChromeTrace(w, r, in)
		return
	default:
		writeError(w, r, http.StatusBadRequest,
			fmt.Errorf("server: unknown trace format %q (steps or chrome)", format))
		return
	}
	var steps []TraceStepJSON
	m, err := core.GreedyCtx(r.Context(), in, core.GreedyOptions{Trace: func(s core.TraceStep) {
		steps = append(steps, TraceStepJSON{
			V: s.V, U: s.U, Sim: s.Sim, Accepted: s.Accepted, Reason: s.Reason,
		})
	}})
	if err != nil {
		writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
		return
	}
	if err := core.Validate(in, m); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	var buf bytes.Buffer
	if err := encoding.EncodeMatching(&buf, m); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	var mj encoding.MatchingJSON
	if err := json.Unmarshal(buf.Bytes(), &mj); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	if steps == nil {
		steps = []TraceStepJSON{}
	}
	writeJSON(w, TraceResponse{Matching: mj, Steps: steps})
}

// handleChromeTrace runs the requested solver (default greedy) with a span
// recorder attached and answers with the spans in Chrome trace-event JSON —
// loadable as-is in Perfetto (ui.perfetto.dev) or chrome://tracing.
func handleChromeTrace(w http.ResponseWriter, r *http.Request, in *core.Instance) {
	algo := r.URL.Query().Get("algo")
	if algo == "" {
		algo = "greedy"
	}
	if _, err := core.LookupSolver(algo); err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return
	}
	rec := obs.NewRecorder()
	ctx := obs.ContextWithRecorder(r.Context(), rec)
	m, err := core.SolveContext(ctx, algo, in, rand.New(rand.NewSource(1)))
	if err != nil {
		writeError(w, r, solveErrorStatus(err, http.StatusInternalServerError), err)
		return
	}
	if err := core.Validate(in, m); err != nil {
		writeError(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// The export's otherData carries the request ID, so a saved trace file
	// still names the request (and its log lines) it came from.
	meta := map[string]string{}
	if id := obs.RequestIDFrom(ctx); id != "" {
		meta["request_id"] = id
	}
	_ = obs.WriteChromeTraceMeta(w, rec.Spans(), meta)
}

// handleVersion answers GET /version with the binary's build identity.
func handleVersion(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, buildinfo.Get())
}

// pairDoc is the {"instance":..., "matching":...} request body shared by
// /report and /validate.
type pairDoc struct {
	Instance json.RawMessage       `json:"instance"`
	Matching encoding.MatchingJSON `json:"matching"`
}

func decodePair(w http.ResponseWriter, r *http.Request) (*core.Instance, *core.Matching, bool) {
	var doc pairDoc
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, MaxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		writeError(w, r, http.StatusBadRequest, fmt.Errorf("server: %w", err))
		return nil, nil, false
	}
	in, err := encoding.DecodeInstance(bytes.NewReader(doc.Instance))
	if err != nil {
		writeError(w, r, http.StatusBadRequest, err)
		return nil, nil, false
	}
	m := core.NewMatching()
	for _, p := range doc.Matching.Pairs {
		if m.Contains(p.V, p.U) {
			writeError(w, r, http.StatusBadRequest, fmt.Errorf("server: duplicate pair (%d, %d)", p.V, p.U))
			return nil, nil, false
		}
		m.Add(p.V, p.U, p.Sim)
	}
	return in, m, true
}

func (s *service) handleReport(w http.ResponseWriter, r *http.Request) {
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	in, m, ok := decodePair(w, r)
	if !ok {
		return
	}
	skipBound := r.URL.Query().Get("bound") == "false"
	rep, err := report.Build(in, m, skipBound)
	if err != nil {
		writeError(w, r, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, rep)
}

// ValidateResponse is the /validate payload.
type ValidateResponse struct {
	Feasible bool    `json:"feasible"`
	Reason   string  `json:"reason,omitempty"`
	MaxSum   float64 `json:"max_sum"`
	Pairs    int     `json:"pairs"`
}

func handleValidate(w http.ResponseWriter, r *http.Request) {
	in, m, ok := decodePair(w, r)
	if !ok {
		return
	}
	resp := ValidateResponse{Feasible: true, MaxSum: m.MaxSum(), Pairs: m.Size()}
	if err := core.Validate(in, m); err != nil {
		resp.Feasible = false
		resp.Reason = err.Error()
	}
	writeJSON(w, resp)
}
