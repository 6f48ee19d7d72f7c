package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/cfq"
	"repro/internal/lru"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/obs/workload"
	"repro/internal/plan"
	"repro/internal/store"
)

// The daemon's metrics, in the same lock-free registry the engine metrics
// live in: one /metrics scrape shows the full stack, admission to lattice.
// Request-shaped families are labeled by endpoint (and status / dataset /
// strategy where the dimension is meaningful); dataset labels are
// cardinality-capped by dsLabel.
var (
	mReqs            = obs.NewCounterVec("server_requests_total", "endpoint", "status")
	mReqErrors       = obs.NewCounter("server_request_errors_total")
	mShed            = obs.NewCounter("server_shed_total")
	mResultHits      = obs.NewCounter("server_result_cache_hits_total")
	mResultMisses    = obs.NewCounter("server_result_cache_misses_total")
	mResultEvictions = obs.NewCounter("server_result_cache_evictions_total")
	mResultEntries   = obs.NewGauge("server_result_cache_entries")
	mResultBytes     = obs.NewGauge("server_result_cache_bytes")
	mActive          = obs.NewGaugeVec("server_active_requests", "endpoint")
	mQueued          = obs.NewGauge("server_queued_requests")
	mReqDur          = obs.NewHistogramVec("server_request_duration_ms", "endpoint")
	mQueueWait       = obs.NewHistogramVec("server_queue_wait_ms", "endpoint")
	mQueries         = obs.NewCounterVec("server_queries_total", "dataset", "strategy")
)

// dsLabel caps the dataset label's cardinality: the first maxDatasetLabels
// distinct names keep their own series, the rest share workload.OverflowKey (dataset
// names are client input; an adversarial client must not be able to grow
// the registry without bound).
const maxDatasetLabels = 64

var (
	dsLabelMu   sync.Mutex
	dsLabelSeen = map[string]bool{}
)

func dsLabel(name string) string {
	dsLabelMu.Lock()
	defer dsLabelMu.Unlock()
	if dsLabelSeen[name] {
		return name
	}
	if len(dsLabelSeen) >= maxDatasetLabels {
		return workload.OverflowKey
	}
	dsLabelSeen[name] = true
	return name
}

// Request body limits.
const (
	maxQueryBody   = 1 << 20  // query requests are small
	maxDatasetBody = 64 << 20 // inline transactions can be large
)

// The three query endpoints.
const (
	kindQuery   = "query"
	kindExplain = "explain"
	kindAnalyze = "explain-analyze"
)

// Config tunes a Server. Zero values get serving defaults (see NewServer).
type Config struct {
	// Workers bounds concurrent evaluations (default: GOMAXPROCS).
	Workers int
	// QueueDepth bounds requests waiting for a worker beyond the workers
	// themselves (default: 2×Workers). A request that would exceed it is
	// shed immediately with 429.
	QueueDepth int
	// QueueWait bounds how long an admitted-to-queue request waits for a
	// worker before being shed with 429 + Retry-After (default: 1s).
	QueueWait time.Duration
	// MemSoftLimit, when positive, starts the memory back-pressure watchdog:
	// once live heap use reaches the limit the server degrades (shrinks its
	// caches, sheds batch admissions, writes slow records without their plan
	// report) until heap use stays below 85% of it. 0 disables the watchdog.
	MemSoftLimit int64
	// memProbe and memTick override the watchdog's memory reading and its
	// 250ms sampling period (tests drive the degraded state
	// deterministically with a synthetic heap).
	memProbe func() int64
	memTick  time.Duration
	// Limits are the evaluation budget/deadline/pairs defaults and maxima.
	Limits Limits
	// DefaultMinSupportFrac is the support threshold applied when a request
	// sets neither min_support nor an explicit freq() conjunct
	// (default: 0.01, the CLI's default).
	DefaultMinSupportFrac float64
	// ResultCacheEntries / ResultCacheBytes bound the normalized-query
	// result cache (defaults: 256 entries, 64 MiB; set both negative to
	// disable caching).
	ResultCacheEntries int
	ResultCacheBytes   int64
	// SessionCacheBytes bounds each dataset session's lattice cache
	// (default: 256 MiB; negative = unbounded).
	SessionCacheBytes int64
	// DefaultStrategy is applied when a request sets no strategy
	// (default: "optimized"; "auto" makes the planner the default for every
	// engine-driven evaluation).
	DefaultStrategy string
	// PlanCacheEntries / PlanCacheBytes bound the prepared-plan cache
	// behind POST /v1/prepare and strategy "auto" (defaults: 256 entries,
	// 8 MiB; set both negative to disable prepared handles).
	PlanCacheEntries int
	PlanCacheBytes   int64
	// AllowFiles permits DatasetSpec.File (a server-side path read).
	AllowFiles bool
	// Store, when set, makes the dataset registry durable: every create,
	// append, and drop is written to a per-dataset WAL under Store.Dir
	// before it is acked, and Recover replays the directory at boot. The
	// server starts not-ready (503 not_ready on /v1, /readyz failing) until
	// Recover completes.
	Store *store.Options
	// SlowQuery, when positive, enables the slow-query log: a query request
	// whose wall time crosses the threshold — or that ends in a budget or
	// server error — leaves a journal record marked slow, carrying the query
	// text and the analyzed report of the plan that ran beside its trace id,
	// per-phase span deltas and pruning-site attribution; GET /v1/slowlog
	// serves the newest of them.
	SlowQuery time.Duration
	// SlowLogDir is where the journal persists when only the slow log is
	// configured (WorkloadDir wins when both are set; "" keeps the slow view
	// in memory only).
	SlowLogDir string
	// Workload enables the workload journal: every completed /v1/query
	// appends one record (constraint classification and enforcement sites
	// of the plan that ran, executed strategy and plan decision, admission
	// outcome, phase deltas, per-site pruning, outcome), rolled up by GET
	// /v1/workload. Also implied by WorkloadDir.
	Workload bool
	// WorkloadDir persists the journal to a bounded on-disk JSONL ring under
	// this directory ("" keeps only the slow view and the live rollups, in
	// memory).
	WorkloadDir string
	// Logger, when set, receives one line per request plus span events.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.QueueWait <= 0 {
		c.QueueWait = time.Second
	}
	if c.Limits.DefaultTimeout <= 0 {
		c.Limits.DefaultTimeout = 30 * time.Second
	}
	if c.DefaultMinSupportFrac <= 0 {
		c.DefaultMinSupportFrac = 0.01
	}
	if c.ResultCacheEntries == 0 {
		c.ResultCacheEntries = 256
	}
	if c.ResultCacheBytes == 0 {
		c.ResultCacheBytes = 64 << 20
	}
	if c.SessionCacheBytes == 0 {
		c.SessionCacheBytes = 256 << 20
	}
	if c.PlanCacheEntries == 0 {
		c.PlanCacheEntries = 256
	}
	if c.PlanCacheBytes == 0 {
		c.PlanCacheBytes = 8 << 20
	}
	return c
}

// Server is the CFQ query daemon: Handler serves the /v1 API, OpsHandler
// the metrics/pprof surface, Shutdown drains gracefully.
type Server struct {
	cfg      Config
	reg      *Registry
	adm      *admission
	cache    *lru.Cache[cachedResult] // nil = result caching disabled
	log      *slog.Logger
	mux      *http.ServeMux
	workload *workloadCollector // nil unless the journal or the slow log is configured
	planner  *plan.Planner
	plans    *lru.Cache[*planEntry] // by wire handle; nil = prepared handles disabled
	flights  *collapser
	watchdog *watchdog // nil unless Config.MemSoftLimit > 0

	baseCtx  context.Context
	cancel   context.CancelFunc
	draining atomic.Bool
	ready    atomic.Bool
	store    *store.Store

	srvMu   sync.Mutex // guards httpSrv: Serve publishes it, Shutdown reads it
	httpSrv *http.Server

	idPrefix string
	reqSeq   atomic.Uint64
}

// NewServer builds a server from the config (see Config for defaults).
func NewServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		reg:      NewRegistry(max(cfg.SessionCacheBytes, 0), cfg.AllowFiles),
		adm:      newAdmission(cfg.Workers, cfg.QueueDepth, cfg.QueueWait),
		cache:    newResultCache(cfg.ResultCacheEntries, cfg.ResultCacheBytes),
		log:      cfg.Logger,
		planner:  plan.New(plan.Options{}),
		plans:    newPlanCache(cfg.PlanCacheEntries, cfg.PlanCacheBytes),
		flights:  newCollapser(),
		baseCtx:  baseCtx,
		cancel:   cancel,
		idPrefix: fmt.Sprintf("%08x", time.Now().UnixNano()&0xffffffff),
	}
	if cfg.SlowQuery > 0 || cfg.Workload || cfg.WorkloadDir != "" {
		s.workload = newWorkloadCollector(cfg)
	}
	if cfg.MemSoftLimit > 0 {
		s.watchdog = newWatchdog(s, cfg)
	} else {
		mDegradeLevel.Set(0)
	}
	s.mux = s.buildMux()
	// Without a durable store there is nothing to recover: the server is
	// ready from construction. With one, readiness waits for Recover.
	s.ready.Store(cfg.Store == nil)
	return s
}

// Recover opens the durable store (Config.Store), replays every dataset
// into the registry, and marks the server ready. Until it returns, /readyz
// fails and the /v1 endpoints answer 503 not_ready — a load balancer must
// not route to a daemon that has not finished reloading its acked state.
// With no Config.Store it is a no-op. Call once, before Serve's listener is
// advertised as ready.
func (s *Server) Recover() ([]store.Recovered, error) {
	if s.cfg.Store == nil {
		s.ready.Store(true)
		return nil, nil
	}
	opts := *s.cfg.Store
	if opts.Logger == nil {
		opts.Logger = s.log
	}
	st, recovered, err := store.Open(opts)
	if err != nil {
		return nil, err
	}
	s.store = st
	s.reg.SetStore(st)
	for _, rec := range recovered {
		if rec.Err != nil {
			// The files stay on disk for inspection and the store refuses
			// re-creation of the name; the daemon serves everything else.
			if s.log != nil {
				s.log.Error("dataset unrecoverable",
					slog.String("dataset", rec.Name), slog.Any("err", rec.Err))
			}
			continue
		}
		if err := s.reg.Adopt(rec.Name, rec.Meta, rec.DB, rec.Gen); err != nil {
			return recovered, fmt.Errorf("adopt recovered dataset %q: %w", rec.Name, err)
		}
		if s.log != nil {
			s.log.Info("dataset recovered",
				slog.String("dataset", rec.Name),
				slog.Uint64("generation", rec.Gen),
				slog.Int("transactions", rec.DB.Len()),
				slog.Int("records_replayed", rec.Records))
		}
	}
	s.ready.Store(true)
	return recovered, nil
}

// Registry exposes the dataset registry (preloading at startup).
func (s *Server) Registry() *Registry { return s.reg }

// Handler returns the /v1 API handler.
func (s *Server) Handler() http.Handler { return s.mux }

// OpsHandler returns the operations surface: /metrics (Prometheus text),
// /debug/vars, /debug/pprof (all confined to internal/obs),
// /healthz, /readyz, and /statz — the operator rollup document. Serve it on
// a separate, non-public port.
func (s *Server) OpsHandler() http.Handler {
	mux := obs.NewProfilingMux()
	mux.HandleFunc("/healthz", s.handleHealth)
	mux.HandleFunc("/readyz", s.handleReady)
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

// handleStatz renders the operator rollup: admission, degradation and
// collapse state; explicit request-duration bucket boundaries and counts per
// endpoint (the transparent form of the Prometheus histogram, under the same
// "schema": 1 contract as the API envelopes); cache and store health. The
// request durations are derived from the same registry /metrics scrapes, so
// the two surfaces cannot disagree.
func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{
		"schema":                     SchemaVersion,
		"admission":                  s.adm.state(),
		"degradation":                s.degradationStatz(),
		"collapse":                   map[string]any{"inflight": s.flights.inflight()},
		"result_cache":               cacheStatz(s.cache.Stats()),
		"server_request_duration_ms": requestDurationBuckets(),
		"store":                      storeHealth(),
		"slowlog":                    map[string]any{"enabled": s.cfg.SlowQuery > 0, "records": len(s.slowView()), "threshold_ms": float64(s.cfg.SlowQuery) / float64(time.Millisecond)},
		"workload":                   s.workloadStatz(),
		"planner":                    s.plannerStatz(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(doc)
}

// requestDurationBuckets exposes the server_request_duration_ms histogram
// with explicit bucket boundaries and non-cumulative counts, per endpoint.
func requestDurationBuckets() map[string]*obs.HistogramSnapshot {
	out := map[string]*obs.HistogramSnapshot{}
	for _, f := range obs.Families() {
		if f.Name != "server_request_duration_ms" {
			continue
		}
		for _, series := range f.Series {
			if series.Hist == nil || len(series.LabelValues) == 0 {
				continue
			}
			out[series.LabelValues[0]] = series.Hist
		}
	}
	return out
}

// storeHealth extracts the WAL/compaction families from the registry
// snapshot (empty when the daemon runs without a durable store).
func storeHealth() map[string]any {
	out := map[string]any{}
	for name, v := range obs.Snapshot() {
		if strings.HasPrefix(name, "store_") {
			out[name] = v
		}
	}
	return out
}

func (s *Server) buildMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.instrument(kindQuery, s.handleQueryKind(kindQuery)))
	mux.HandleFunc("POST /v1/explain", s.instrument(kindExplain, s.handleQueryKind(kindExplain)))
	mux.HandleFunc("POST /v1/explain-analyze", s.instrument(kindAnalyze, s.handleQueryKind(kindAnalyze)))
	mux.HandleFunc("POST /v1/prepare", s.instrument("prepare", s.handlePrepare))
	mux.HandleFunc("GET /v1/datasets", s.instrument("datasets.list", s.handleList))
	mux.HandleFunc("POST /v1/datasets", s.instrument("datasets.create", s.handleCreate))
	mux.HandleFunc("GET /v1/datasets/{name}", s.instrument("datasets.info", s.handleInfo))
	mux.HandleFunc("DELETE /v1/datasets/{name}", s.instrument("datasets.drop", s.handleDrop))
	mux.HandleFunc("POST /v1/datasets/{name}/transactions", s.instrument("datasets.mutate", s.handleMutate))
	mux.HandleFunc("GET /v1/slowlog", s.instrument("slowlog", s.handleSlowlog))
	mux.HandleFunc("GET /v1/workload", s.instrument("workload", s.handleWorkload))
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return mux
}

// slowView is the journal's slow view, newest first (nil with no journal).
func (s *Server) slowView() []*workload.Record {
	if s.workload == nil {
		return nil
	}
	return s.workload.journal.SlowView()
}

// handleSlowlog serves the journal's slow view, newest first.
// ?n= bounds the count (default 32); ?dataset= keeps only one dataset's
// records. Malformed values are a structured 422 — the parameter parsed as
// HTTP but fails this endpoint's semantics.
func (s *Server) handleSlowlog(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	n := 32
	if v := r.URL.Query().Get("n"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p < 0 {
			s.writeError(w, sc, http.StatusUnprocessableEntity,
				&ErrorBody{Code: CodeBadRequest, Message: "n must be a non-negative integer"})
			return
		}
		n = p
	}
	dataset := r.URL.Query().Get("dataset")
	if dataset != "" {
		if err := validateName(dataset); err != nil {
			s.writeError(w, sc, http.StatusUnprocessableEntity,
				&ErrorBody{Code: CodeBadRequest, Message: "dataset: " + err.Error()})
			return
		}
	}
	records := s.slowView()
	if dataset != "" {
		kept := records[:0]
		for _, rec := range records {
			if rec.Dataset == dataset {
				kept = append(kept, rec)
			}
		}
		records = kept
	}
	if len(records) > n {
		records = records[:n] // newest first; keep the n newest
	}
	resp := &SlowlogResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID,
		Enabled:     s.cfg.SlowQuery > 0,
		ThresholdMS: float64(s.cfg.SlowQuery) / float64(time.Millisecond),
		Records:     records,
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// Serve accepts connections on ln until Shutdown. Request contexts descend
// from the server's base context, so a forced drain cancels in-flight
// evaluations at their next budget checkpoint.
func (s *Server) Serve(ln net.Listener) error {
	srv := &http.Server{
		Handler:     s.mux,
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	s.srvMu.Lock()
	s.httpSrv = srv
	s.srvMu.Unlock()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Shutdown drains the server: new work is rejected with 503 immediately,
// in-flight requests get until ctx's deadline to finish, then the base
// context is cancelled so stragglers abort at their next checkpoint and
// remaining connections are closed. Safe to call without Serve (tests
// driving Handler directly).
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.srvMu.Lock()
	srv := s.httpSrv
	s.srvMu.Unlock()
	var err error
	if srv != nil {
		err = srv.Shutdown(ctx)
		if err != nil {
			// Drain deadline expired: force-cancel the stragglers.
			s.cancel()
			_ = srv.Close()
		}
	}
	s.cancel()
	// The watchdog stops before the stores and caches it retunes are torn
	// down: its loop exits on the base-context cancel (restoring degradation
	// level 0 on the way out), and waiting here means no watchdog goroutine
	// survives Shutdown — the load soak's goroutine-leak check counts on it.
	if s.watchdog != nil {
		s.watchdog.wait()
	}
	// Close the durable store after the drain: no handler is writing once
	// Shutdown returns from srv.Shutdown, and a clean close fsyncs every
	// log regardless of policy.
	if s.store != nil {
		if cerr := s.store.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	// The journal closes last; a straggler's record appended after it is
	// counted as a drop.
	if cerr := s.workload.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// mintID creates a server-local request id (used when the client sent none,
// or sent one that cleans to nothing).
func (s *Server) mintID() string {
	return fmt.Sprintf("%s-%06d", s.idPrefix, s.reqSeq.Add(1))
}

// reqScope is the per-request correlation state every instrumented handler
// runs under: the request id (client-supplied after CleanRequestID, else
// minted), the W3C trace context (propagated or minted), and the fields the
// request accretes on its way through serveQuery that the finish hooks
// (request log line, the journal record) read back.
type reqScope struct {
	reqID string
	tc    telemetry.TraceContext

	// Set by serveQuery as the request progresses.
	dataset   string
	strategy  string
	gen       uint64
	canonical string
	code      string // error code of the response, "" on success
	cached    bool
	collapsed bool
	priority  string        // admission class, once the request is classified
	queueWait time.Duration // time spent in admission
	tracer    *obs.Tracer
	prune     *cfq.PruneSet
	query     *cfq.Query
	strat     cfq.Strategy
	prepared  *cfq.Prepared // the plan that ran; nil until evaluation starts
	pruned    int64
	timeout   time.Duration
}

// modeSession is the mode (reqScope.strategy: the result-cache key's and the
// wire's strategy) of an inline query the dataset's shared session serves.
const modeSession = "session"

type scopeKey struct{}

// scope returns the request's reqScope, minting a detached one for handlers
// driven without the instrument middleware (direct Handler() tests).
func (s *Server) scope(r *http.Request) *reqScope {
	if sc, ok := r.Context().Value(scopeKey{}).(*reqScope); ok {
		return sc
	}
	return &reqScope{reqID: s.mintID(), tc: telemetry.MintTrace()}
}

// statusWriter captures the response status for the finish hooks.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// instrument wraps a handler with the per-request telemetry envelope:
// trace/request-id extraction (client headers accepted, validated, clamped;
// minted otherwise), correlation headers on *every* response — 429s, 503s
// and 422s included — labeled request metrics, the request log line, and the
// journal record.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sc := &reqScope{tc: telemetry.EnsureTrace(r.Header.Get("traceparent"))}
		if sc.reqID = telemetry.CleanRequestID(r.Header.Get("X-Request-ID")); sc.reqID == "" {
			sc.reqID = s.mintID()
		}
		w.Header().Set("X-Request-ID", sc.reqID)
		w.Header().Set("Traceparent", sc.tc.Traceparent())

		active := mActive.WithLabels(endpoint)
		active.Add(1)
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(context.WithValue(r.Context(), scopeKey{}, sc)))
		active.Add(-1)

		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		dur := time.Since(start)
		mReqs.WithLabels(endpoint, strconv.Itoa(status)).Inc()
		mReqDur.WithLabels(endpoint).Observe(dur)
		s.record(sc, endpoint, status, dur)
		if s.log != nil {
			s.log.Info("request",
				slog.String("request_id", sc.reqID),
				slog.String("trace_id", sc.tc.TraceID),
				slog.String("endpoint", endpoint),
				slog.Int("status", status),
				slog.Bool("cached", sc.cached),
				slog.Duration("elapsed", dur))
		}
	}
}

// --- query endpoints ---

func (s *Server) handleQueryKind(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.serveQuery(w, r, kind, s.scope(r))
	}
}

// serveQuery runs one query-endpoint request through the server's phases —
// parse, admission, evaluate, encode — each a span on the request's tracer
// (see IMPLEMENTATION_NOTES §12). Returns the HTTP status and whether the
// result came from the cache.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, kind string, sc *reqScope) (int, bool) {
	if !s.ready.Load() {
		return s.notReady(w, sc), false
	}
	if s.draining.Load() {
		return s.writeError(w, sc, http.StatusServiceUnavailable,
			&ErrorBody{Code: CodeDraining, Message: "server is shutting down"}), false
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBody))
	if err != nil {
		return s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: "read body: " + err.Error()}), false
	}
	req, err := DecodeQueryRequest(body)
	if err != nil {
		return s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: err.Error()}), false
	}

	// Priority class: interactive for inline /v1/query, batch for prepared
	// replays and the explain endpoints, explicit request override wins
	// (validated in Validate, so parse cannot fail here).
	prio := prioInteractive
	if kind != kindQuery || req.Prepared != "" {
		prio = prioBatch
	}
	if req.Priority != "" {
		if p, perr := parsePriority(req.Priority); perr == nil {
			prio = p
		}
	}
	sc.priority = prio.String()

	// The request tracer: per-phase spans feed the slog stream (always, when
	// the server has a logger), the response's RunReport (when the client
	// asked with trace), and the journal record's phase breakdown (when the
	// journal or the slow log is on). The root span carries the correlation
	// ids so any rendering of the report joins back to the request.
	var tracer *obs.Tracer
	if req.Trace || s.log != nil || s.workload != nil {
		var spanLog *slog.Logger
		if s.log != nil {
			spanLog = s.log.With(
				slog.String("request_id", sc.reqID),
				slog.String("trace_id", sc.tc.TraceID),
				slog.String("endpoint", kind))
		}
		tracer = obs.NewTracer(obs.Options{
			Name:   "serve:" + kind,
			Logger: spanLog,
			Attrs: []obs.Attr{
				obs.String("trace_id", sc.tc.TraceID),
				obs.String("request_id", sc.reqID),
			},
		})
	}
	sc.tracer = tracer
	ctx := obs.WithTracer(r.Context(), tracer)
	// A forced server drain must reach requests even when the handler is
	// driven without Serve (httptest), where request contexts do not descend
	// from baseCtx.
	ctx, cancelReq := context.WithCancel(ctx)
	defer cancelReq()
	stop := context.AfterFunc(s.baseCtx, cancelReq)
	defer stop()

	// parse: registry lookup, query text, defaults, clamped limits — or,
	// for a prepared handle, plan-cache resolution with the staleness check.
	// Either way the scope now describes the query.
	psp := tracer.Start("parse")
	var (
		sess     *cfq.Session
		prepared *cfq.Prepared
		status   int
		ebody    *ErrorBody
	)
	switch {
	case req.Prepared == "":
		sess, status, ebody = s.resolveInline(sc, req)
	case kind != kindQuery:
		status, ebody = http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: "prepared handles are only valid on /v1/query"}
	default:
		prepared, status, ebody = s.resolvePrepared(sc, req)
	}
	if ebody != nil {
		psp.End(nil)
		return s.writeError(w, sc, status, ebody), false
	}
	// Inline queries evaluate through the dataset's shared session unless
	// the request opts out or asks for strategy auto: a plan's chosen
	// strategy must be the one that runs, and the session runs only its own
	// (Apriori⁺ over the cached lattice), so auto always runs the engine.
	sc.strategy = sc.strat.String()
	useSession := prepared == nil && sc.strat != cfq.Auto && kind == kindQuery && !req.NoSession
	if useSession {
		sc.strategy = modeSession
	}
	mQueries.WithLabels(dsLabel(sc.dataset), sc.strategy).Inc()
	psp.SetAttrs(obs.String("dataset", sc.dataset), obs.String("mode", sc.strategy))
	psp.End(nil)

	// Result-cache lookup. Traced requests bypass the cache: the report
	// must describe this run, not a previous one.
	cacheable := !req.NoCache && !req.Trace && s.cache != nil
	key := resultKey(sc.dataset, sc.gen, kind, sc.strategy, sc.canonical)
	if cacheable {
		if hit, ok := s.cache.Get(key); ok {
			mResultHits.Inc()
			sc.cached = true
			return s.writeResult(w, sc, hit, nil), true
		}
		mResultMisses.Inc()
	}

	// Collapse concurrent identical cache misses: the first request through
	// leads the flight (and evaluates below); followers park here — holding
	// no worker slot — and fan the leader's raw result out under their own
	// envelopes and correlation headers. A follower of a failed leader falls
	// through and evaluates on its own, paying admission individually.
	var flight *collapseGroup
	if cacheable && kind == kindQuery {
		g, leader := s.flights.join(key)
		if leader {
			flight = g
			defer s.flights.finish(key, g)
		} else {
			select {
			case <-g.done:
				if g.ok {
					sc.collapsed = true
					mCollapsed.Inc()
					return s.writeResult(w, sc, g.res, nil), false
				}
			case <-ctx.Done():
				return s.writeEvalError(w, sc, ctx.Err()), false
			}
		}
	}

	// With the journal or the slow log on, every request that gets this far
	// — past the result cache and the collapse — carries a PruneSet: the
	// record has the run's actual per-site pruning, and its prune-site
	// counters sum to CandidatesPruned by construction.
	if s.workload != nil {
		sc.prune = cfq.NewPruneSet()
		ctx = cfq.WithPruning(ctx, sc.prune)
	}

	// admission: a worker slot, or a bounded class-ordered queue wait, or
	// 429. The wait is its own histogram so queueing pressure is visible
	// separately from evaluation time.
	asp := tracer.Start("admission")
	admStart := time.Now()
	err = s.adm.acquire(ctx, prio)
	sc.queueWait = time.Since(admStart)
	mQueueWait.WithLabels(kind).Observe(sc.queueWait)
	asp.End(nil)
	if err != nil {
		var oe *overloadError
		if errors.As(err, &oe) {
			w.Header().Set("Retry-After", strconv.Itoa(int((oe.retry+time.Second-1)/time.Second)))
			return s.writeError(w, sc, http.StatusTooManyRequests,
				&ErrorBody{Code: CodeOverloaded, Message: oe.Message(),
					RetryAfterMS:     oe.retry.Milliseconds(),
					DegradationLevel: s.degradeLevel()}), false
		}
		return s.writeEvalError(w, sc, err), false
	}
	defer s.adm.release()

	// The soft budget deadline (timeout, partial stats) is the primary
	// bound; a hard context deadline at 2× backstops evaluations stuck
	// between checkpoints.
	if sc.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 2*sc.timeout)
		defer cancel()
	}

	// prepare: every path evaluates through a *cfq.Prepared. A handle
	// brought its own; strategy auto resolves through the plan cache (a hit
	// replays the stored decision with no planner work at all — no
	// plan:decide span on the trace; a miss plans once under this request's
	// tracer); session mode binds the query to the dataset's lattice cache;
	// a fixed strategy compiles and skips planning.
	switch {
	case prepared != nil:
	case sc.strat == cfq.Auto:
		var entry *planEntry
		if entry, _, err = s.preparePlan(ctx, sc); err == nil {
			prepared = entry.prepared
			sc.strat = prepared.Strategy()
		}
	case useSession:
		prepared, err = sess.Prepare(sc.query)
	default:
		prepared, err = sc.query.PrepareWith(ctx, s.planner, sc.strat)
	}
	if err != nil {
		return s.writeEvalError(w, sc, err), false
	}

	sc.prepared = prepared
	esp := tracer.Start("evaluate")
	var res *cfq.Result
	var rep *cfq.ExplainReport
	switch kind {
	case kindQuery:
		res, err = prepared.RunContext(ctx)
	case kindExplain:
		rep, err = prepared.Explain()
	case kindAnalyze:
		res, rep, err = prepared.ExplainAnalyzeContext(ctx)
	}
	out := cachedResult{Generation: sc.gen, Strategy: sc.strategy}
	if err == nil && res != nil {
		// The span tree is delivered once, in the envelope's report field,
		// not embedded in the result document too.
		res.Report = nil
		sc.pruned = res.Stats.CandidatesPruned
		out.Result, err = encodeResult(res)
	}
	if err == nil && rep != nil {
		out.Explain, err = json.Marshal(rep)
	}
	esp.End(nil)
	if err != nil {
		return s.writeEvalError(w, sc, err), false
	}

	// Store only if the dataset generation we evaluated against is still
	// current: a mutation that landed mid-evaluation must not get its
	// pre-mutation result cached against the post-mutation generation key's
	// dataset state. (The key carries the old gen, so the entry would be
	// unreachable anyway — this check keeps dead generations from occupying
	// cache space at all.)
	if cacheable {
		if cur, ok := s.reg.Generation(sc.dataset); ok && cur == sc.gen {
			s.putResult(key, out)
		}
	}
	// Release the flight's followers with the shared raw result. The key
	// carries the generation, so a request that observed a later mutation is
	// in a different flight and can never receive this snapshot's answer.
	if flight != nil {
		flight.res = out
		flight.ok = true
	}
	var report *obs.RunReport
	if req.Trace {
		report = tracer.Report()
	}
	return s.writeResult(w, sc, out, report), false
}

// writeResult writes the query endpoints' success envelope: the request's
// correlation ids and cache/collapse outcome around the (possibly shared)
// result bytes, which go on the wire as stored. Like the json.Encoder it
// replaces, it writes no body when the envelope fails to encode.
func (s *Server) writeResult(w http.ResponseWriter, sc *reqScope, r cachedResult, report *obs.RunReport) int {
	bp := getBuf()
	defer putBuf(bp)
	b, err := appendQueryResponse(*bp, &QueryResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID,
		Dataset:    sc.dataset,
		Generation: r.Generation, Strategy: r.Strategy,
		Cached: sc.cached, Collapsed: sc.collapsed,
		Result: r.Result, Explain: r.Explain, Report: report,
	})
	*bp = b
	w.Header().Set("Content-Type", "application/json")
	if w.Header().Get("X-Request-ID") == "" {
		w.Header().Set("X-Request-ID", sc.reqID)
	}
	w.WriteHeader(http.StatusOK)
	if err == nil {
		_, _ = w.Write(b)
	}
	return http.StatusOK
}

// resolveInline fills the scope from an inline request: registry lookup,
// query text, the server's defaults and clamped limits. It returns the
// dataset's shared session, or the error to write.
func (s *Server) resolveInline(sc *reqScope, req *QueryRequest) (*cfq.Session, int, *ErrorBody) {
	sc.dataset = req.Dataset
	ds, sess, gen, err := s.reg.Lookup(req.Dataset)
	if err != nil {
		return nil, http.StatusNotFound, &ErrorBody{Code: CodeUnknownDataset, Message: err.Error()}
	}
	name := req.Strategy
	if name == "" {
		name = s.cfg.DefaultStrategy
	}
	strat, err := cfq.ParseStrategy(name)
	if err != nil {
		return nil, http.StatusBadRequest, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}
	}
	q, err := cfq.ParseQuery(ds, req.Query)
	if err != nil {
		return nil, http.StatusBadRequest, &ErrorBody{Code: CodeBadRequest, Message: err.Error()}
	}
	// Defaults apply only to the sides the query text left implicit.
	def := cfq.NewQuery(ds)
	if req.MinSupport > 0 {
		def.MinSupport(req.MinSupport)
	} else {
		frac := req.MinSupportFrac
		if frac <= 0 {
			frac = s.cfg.DefaultMinSupportFrac
		}
		def.MinSupportFraction(frac)
	}
	q.ApplyDefaultSupports(def)
	q.MaxPairs(s.cfg.Limits.ResolvePairs(req))
	budget, timeout := s.cfg.Limits.Resolve(req)
	q.Budget(budget)
	sc.gen, sc.canonical = gen, q.Canonical()
	sc.query, sc.strat, sc.timeout = q, strat, timeout
	return sess, 0, nil
}

// writeEvalError maps evaluation failures onto the wire: budget exhaustion
// carries its partial stats (422), deadline and cancellation are told apart
// (504 / 503), anything else is a 500.
func (s *Server) writeEvalError(w http.ResponseWriter, sc *reqScope, err error) int {
	var be *cfq.BudgetError
	switch {
	case errors.As(err, &be):
		// The partial stats are the whole run's counters up to the abort, so
		// the journal record and the 422 body report one pruned count.
		stats := be.Stats
		sc.pruned = stats.CandidatesPruned
		return s.writeError(w, sc, http.StatusUnprocessableEntity, &ErrorBody{
			Code: CodeBudgetExhausted, Message: err.Error(),
			Resource: be.Resource, Where: be.Where, Limit: be.Limit, Used: be.Used,
			PartialStats: &stats,
		})
	case errors.Is(err, context.DeadlineExceeded):
		return s.writeError(w, sc, http.StatusGatewayTimeout,
			&ErrorBody{Code: CodeDeadline, Message: err.Error()})
	case errors.Is(err, context.Canceled):
		code := CodeCanceled
		if s.draining.Load() {
			code = CodeDraining
		}
		return s.writeError(w, sc, http.StatusServiceUnavailable,
			&ErrorBody{Code: code, Message: err.Error()})
	}
	return s.writeError(w, sc, http.StatusInternalServerError,
		&ErrorBody{Code: CodeInternal, Message: err.Error()})
}

// --- dataset endpoints ---

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	if !s.ready.Load() {
		s.notReady(w, sc)
		return
	}
	s.writeJSON(w, http.StatusOK, &DatasetsResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID, Datasets: s.reg.List(),
	})
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	if !s.ready.Load() {
		s.notReady(w, sc)
		return
	}
	if s.draining.Load() {
		s.writeError(w, sc, http.StatusServiceUnavailable,
			&ErrorBody{Code: CodeDraining, Message: "server is shutting down"})
		return
	}
	var spec DatasetSpec
	if !s.decodeBody(w, r, sc, maxDatasetBody, &spec) {
		return
	}
	sc.dataset = spec.Name
	info, err := s.reg.Create(&spec)
	if err != nil {
		switch {
		case errors.Is(err, ErrExists):
			s.writeError(w, sc, http.StatusConflict,
				&ErrorBody{Code: CodeDatasetExists, Message: err.Error()})
		case errors.Is(err, store.ErrWedged):
			s.writeError(w, sc, http.StatusServiceUnavailable,
				&ErrorBody{Code: CodeStorage, Message: err.Error()})
		default:
			s.writeError(w, sc, http.StatusBadRequest,
				&ErrorBody{Code: CodeBadRequest, Message: err.Error()})
		}
		return
	}
	if s.log != nil {
		s.log.Info("dataset created", slog.String("request_id", sc.reqID),
			slog.String("trace_id", sc.tc.TraceID),
			slog.String("dataset", info.Name), slog.Int("transactions", info.Transactions))
	}
	s.writeJSON(w, http.StatusCreated, &DatasetsResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID, Dataset: &info,
	})
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	if !s.ready.Load() {
		s.notReady(w, sc)
		return
	}
	sc.dataset = r.PathValue("name")
	info, err := s.reg.Info(sc.dataset)
	if err != nil {
		s.writeError(w, sc, http.StatusNotFound,
			&ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
		return
	}
	s.writeJSON(w, http.StatusOK, &DatasetsResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID, Dataset: &info,
	})
}

func (s *Server) handleDrop(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	if !s.ready.Load() {
		s.notReady(w, sc)
		return
	}
	name := r.PathValue("name")
	sc.dataset = name
	if err := s.reg.Drop(name); err != nil {
		switch {
		case errors.Is(err, store.ErrWedged):
			s.writeError(w, sc, http.StatusServiceUnavailable,
				&ErrorBody{Code: CodeStorage, Message: err.Error()})
		default:
			s.writeError(w, sc, http.StatusNotFound,
				&ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
		}
		return
	}
	s.cache.DeleteFunc(resultsOf(name))
	s.plans.DeleteFunc(func(_ string, e *planEntry) bool { return e.dataset == name })
	s.writeJSON(w, http.StatusOK, &DatasetsResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID, Dropped: name,
	})
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	if !s.ready.Load() {
		s.notReady(w, sc)
		return
	}
	if s.draining.Load() {
		s.writeError(w, sc, http.StatusServiceUnavailable,
			&ErrorBody{Code: CodeDraining, Message: "server is shutting down"})
		return
	}
	var req MutateRequest
	if !s.decodeBody(w, r, sc, maxDatasetBody, &req) {
		return
	}
	if len(req.Transactions) == 0 {
		s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: "no transactions"})
		return
	}
	name := r.PathValue("name")
	sc.dataset = name
	info, err := s.reg.Mutate(name, req.Transactions)
	if err != nil {
		switch {
		case errors.Is(err, ErrNotFound):
			s.writeError(w, sc, http.StatusNotFound,
				&ErrorBody{Code: CodeUnknownDataset, Message: err.Error()})
		case errors.Is(err, ErrDropped):
			// The mutation raced a concurrent drop: the durable log never
			// saw it, so it is a structured conflict, not a lost write.
			s.writeError(w, sc, http.StatusConflict,
				&ErrorBody{Code: CodeDatasetDropped, Message: err.Error()})
		case errors.Is(err, store.ErrWedged):
			s.writeError(w, sc, http.StatusServiceUnavailable,
				&ErrorBody{Code: CodeStorage, Message: err.Error()})
		default:
			s.writeError(w, sc, http.StatusBadRequest,
				&ErrorBody{Code: CodeBadRequest, Message: err.Error()})
		}
		return
	}
	// Invalidate after the generation bump: a racing evaluation of the old
	// generation fails its gen-unchanged check and stores nothing. The
	// result cache and the plan cache retire off this one bump together —
	// a prepared handle can never outlive the answers it would produce. The
	// plan cache keeps its (generation-keyed) entries so a held handle fails
	// closed as a structured 409 stale_generation on its next use instead of
	// a bare 404; the stale entry is evicted at that point (resolvePrepared),
	// or by LRU pressure, whichever comes first.
	s.cache.DeleteFunc(resultsOf(name))
	if s.log != nil {
		s.log.Info("dataset mutated", slog.String("request_id", sc.reqID),
			slog.String("trace_id", sc.tc.TraceID),
			slog.String("dataset", name), slog.Uint64("generation", info.Generation))
	}
	s.writeJSON(w, http.StatusOK, &DatasetsResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID, Dataset: &info,
	})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	_ = json.NewEncoder(w).Encode(map[string]string{"status": status})
}

// handleReady is the readiness probe: 200 only when boot recovery has
// finished and the server is not draining. Liveness (/healthz) stays 200
// through both, so an orchestrator restarts a hung process but does not
// kill one that is merely reloading its WALs.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	status, code := "ready", http.StatusOK
	switch {
	case s.draining.Load():
		status, code = "draining", http.StatusServiceUnavailable
	case !s.ready.Load():
		status, code = "starting", http.StatusServiceUnavailable
	}
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"status": status})
}

// notReady rejects /v1 traffic while boot recovery is still replaying WALs.
func (s *Server) notReady(w http.ResponseWriter, sc *reqScope) int {
	w.Header().Set("Retry-After", "1")
	return s.writeError(w, sc, http.StatusServiceUnavailable,
		&ErrorBody{Code: CodeNotReady, Message: "server is recovering datasets; retry shortly",
			RetryAfterMS: 1000})
}

// --- helpers ---

// decodeBody strictly decodes a JSON body into v, writing the 400 itself on
// failure.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, sc *reqScope, limit int64, v any) bool {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err == nil {
		err = decodeStrict(body, v)
	}
	if err != nil {
		s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: err.Error()})
		return false
	}
	return true
}

// writeJSON writes a success envelope other than the query endpoints' (see
// writeResult). The correlation headers are set by the instrument middleware.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) int {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
	return status
}

// writeError writes the error envelope — request id and trace id in the
// body and (via the middleware) the headers, on every status including
// 429, 503 and 422 — and records the error code on the scope for the
// request log line and the journal record.
func (s *Server) writeError(w http.ResponseWriter, sc *reqScope, status int, body *ErrorBody) int {
	mReqErrors.Inc()
	sc.code = body.Code
	w.Header().Set("Content-Type", "application/json")
	if w.Header().Get("X-Request-ID") == "" {
		w.Header().Set("X-Request-ID", sc.reqID)
	}
	// Every shed or unavailable response carries a retry hint: specific
	// paths (admission, not-ready) set their own above; anything
	// else that reaches the wire as 429/503 gets an honest floor here, so
	// clients never see a shed without backoff guidance.
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		if w.Header().Get("Retry-After") == "" {
			w.Header().Set("Retry-After", "1")
		}
		if body.RetryAfterMS == 0 {
			body.RetryAfterMS = 1000
		}
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(&ErrorResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID, Error: body,
	})
	return status
}
