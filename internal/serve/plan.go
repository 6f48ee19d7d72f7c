package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"time"

	"repro/cfq"
	"repro/internal/lru"
	"repro/internal/obs"
)

// The planner surface of the daemon: one planner shared by every
// auto-strategy evaluation, and a byte-bounded prepared-plan cache keyed
// dataset × generation × canonical query. A plan-cache hit skips compilation,
// classification and planning entirely — the prepared handle replays the
// frozen executable plan.
var (
	mPlanHits      = obs.NewCounter("plan_cache_hits_total")
	mPlanMisses    = obs.NewCounter("plan_cache_misses_total")
	mPlanEvictions = obs.NewCounter("plan_cache_evictions_total")
	mPlanEntries   = obs.NewGauge("plan_cache_entries")
	mPlanBytes     = obs.NewGauge("plan_cache_bytes")
)

// planEntry is one cached prepared plan, stored under its wire handle. The
// generation is part of the key (a mutation implicitly misses) and also
// stored explicitly so the prepared-handle path can tell "stale" apart from
// "unknown".
type planEntry struct {
	key       string
	handle    string
	dataset   string
	gen       uint64
	canonical string
	query     *cfq.Query
	prepared  *cfq.Prepared
	timeout   time.Duration
}

// planKey mirrors resultKey's shape for the plan cache.
func planKey(dataset string, gen uint64, canonical string) string {
	return resultKey(dataset, gen, "plan", "", canonical)
}

// planHandle derives the deterministic wire handle for a plan key: same
// dataset, generation, and canonical query ⇒ same handle, so clients can
// re-prepare idempotently. The handle is also the plan cache's key, so the
// inline-auto path (which knows the plan key) and the prepared-handle path
// (which knows only the handle) find the same entry.
func planHandle(key string) string {
	sum := sha256.Sum256([]byte(key))
	return "p" + hex.EncodeToString(sum[:8])
}

// planEntryOverhead is the fixed per-plan byte charge; the rest of the
// estimate is the key and canonical text (the compiled CFQ holds pointers
// into the dataset snapshot, which the registry keeps alive anyway).
const planEntryOverhead = 1024

// newPlanCache bounds the prepared-plan cache like the result cache (both
// bounds 0 disables prepared handles: a nil cache).
func newPlanCache(maxEntries int, maxBytes int64) *lru.Cache[*planEntry] {
	if maxEntries <= 0 && maxBytes <= 0 {
		return nil
	}
	return lru.New(maxEntries, maxBytes, func(_ string, _ *planEntry, cost int64, evicted bool) {
		mPlanEntries.Add(-1)
		mPlanBytes.Add(-cost)
		if evicted {
			mPlanEvictions.Inc()
		}
	})
}

// lookupPlan returns the cached plan stored under a handle, counting the
// outcome and bumping the plan's recency.
func (s *Server) lookupPlan(handle string) (*planEntry, bool) {
	e, ok := s.plans.Get(handle)
	if ok {
		mPlanHits.Inc()
	} else {
		mPlanMisses.Inc()
	}
	return e, ok
}

// plannerStatz is the /statz "planner" section: decision counts and
// plan-cache occupancy.
func (s *Server) plannerStatz() map[string]any {
	return map[string]any{
		"state":      s.planner.State(),
		"plan_cache": cacheStatz(s.plans.Stats()),
	}
}

// preparePlan resolves the scope's query to a prepared plan through the
// plan cache: a hit replays the cached plan with no planning work at all (no
// plan:* spans); a miss prepares through the server's planner — with
// strategy auto that is compile + decide, traced when ctx carries a
// tracer — and stores the result keyed to the dataset generation. The store
// is skipped when the generation moved mid-prepare, exactly like the result
// cache's gen-unchanged check.
func (s *Server) preparePlan(ctx context.Context, sc *reqScope) (*planEntry, bool, error) {
	key := planKey(sc.dataset, sc.gen, sc.canonical)
	handle := planHandle(key)
	if e, ok := s.lookupPlan(handle); ok && e.key == key {
		return e, true, nil
	}
	p, err := sc.query.PrepareWith(ctx, s.planner, sc.strat)
	if err != nil {
		return nil, false, err
	}
	e := &planEntry{
		key:       key,
		handle:    handle,
		dataset:   sc.dataset,
		gen:       sc.gen,
		canonical: sc.canonical,
		query:     sc.query,
		prepared:  p,
		timeout:   sc.timeout,
	}
	if cur, ok := s.reg.Generation(sc.dataset); ok && cur == sc.gen {
		cost := int64(len(key)+len(sc.canonical)) + planEntryOverhead
		if s.plans.Put(handle, e, cost) {
			mPlanEntries.Add(1)
			mPlanBytes.Add(cost)
		}
	}
	return e, false, nil
}

// handlePrepare serves POST /v1/prepare: parse and plan the query once,
// cache the executable plan, and return the handle clients pass back as
// "prepared" on /v1/query. Preparing the same canonical query against the
// same dataset generation returns the same handle with cached=true and no
// further planning work.
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
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
	if s.plans == nil {
		s.writeError(w, sc, http.StatusUnprocessableEntity,
			&ErrorBody{Code: CodeBadRequest, Message: "plan cache disabled on this server"})
		return
	}
	var req QueryRequest
	if !s.decodeBody(w, r, sc, maxQueryBody, &req) {
		return
	}
	if err := req.Validate(); err != nil {
		s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: err.Error()})
		return
	}
	if req.Prepared != "" {
		s.writeError(w, sc, http.StatusBadRequest,
			&ErrorBody{Code: CodeBadRequest, Message: "prepare does not accept a prepared handle"})
		return
	}
	if _, status, ebody := s.resolveInline(sc, &req); ebody != nil {
		s.writeError(w, sc, status, ebody)
		return
	}
	entry, cached, err := s.preparePlan(r.Context(), sc)
	if err != nil {
		s.writeEvalError(w, sc, err)
		return
	}
	sc.strategy = entry.prepared.Strategy().String()
	resp := &PrepareResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID,
		Dataset:    sc.dataset,
		Generation: sc.gen,
		Handle:     entry.handle,
		Strategy:   sc.strategy,
		Cached:     cached,
	}
	if d := entry.prepared.Decision(); d != nil {
		resp.Plan = d.Choice()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// resolvePrepared fills the scope from a wire handle and returns its plan
// for execution, enforcing the staleness contract: a handle whose dataset
// generation has moved (or whose dataset is gone) is a structured 409
// stale_generation — the server never silently serves a stale snapshot's
// answer — and the dead entry is evicted. On failure it returns the error
// to write.
func (s *Server) resolvePrepared(sc *reqScope, req *QueryRequest) (*cfq.Prepared, int, *ErrorBody) {
	sc.dataset = req.Dataset
	e, ok := s.lookupPlan(req.Prepared)
	if !ok {
		return nil, http.StatusNotFound, &ErrorBody{
			Code: CodeUnknownPrepared, Message: "unknown prepared handle (expired, evicted, or never issued here)"}
	}
	if req.Dataset != "" && req.Dataset != e.dataset {
		return nil, http.StatusBadRequest, &ErrorBody{
			Code: CodeBadRequest, Message: "prepared handle belongs to dataset " + e.dataset}
	}
	if cur, ok := s.reg.Generation(e.dataset); !ok || cur != e.gen {
		s.plans.Delete(e.handle)
		return nil, http.StatusConflict, &ErrorBody{
			Code:    CodeStaleGeneration,
			Message: "prepared plan is stale: dataset " + e.dataset + " has a newer generation; re-prepare"}
	}
	sc.dataset, sc.gen, sc.canonical = e.dataset, e.gen, e.canonical
	sc.query, sc.strat, sc.timeout = e.query, e.prepared.Strategy(), e.timeout
	return e.prepared, 0, nil
}
