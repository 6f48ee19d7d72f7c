package serve

import (
	"log/slog"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/telemetry"
	"repro/internal/obs/workload"
)

// The workload collector: every completed /v1/query appends one journal
// record (features, classification, chosen strategy, phase deltas,
// attributed pruning, outcome), the regret table counts the live path's
// choices, and — when shadow sampling is on — a sampled fraction of
// completed queries is handed to the shadow executor for alternate-strategy
// re-runs. All of it happens after the response is written; the client
// never waits on profiling.
type workloadCollector struct {
	journal *workload.Journal
	regret  *workload.Regret
	sampler *shadowSampler // nil when ShadowSample <= 0

	// profiles caches the per-query profile (class key, enforcement sites,
	// feature vector) by dataset × generation × canonical text: profiling
	// (cfq.Query.ProfileQuery) compiles and classifies the query, so
	// repeated queries — the workload a planner cares about — pay it once
	// per generation.
	profMu   sync.Mutex
	profiles map[string]*queryProfile
}

// maxProfileCache bounds the profile cache; on overflow the cache resets
// (profiles are cheap to rebuild — simpler than LRU bookkeeping).
const maxProfileCache = 512

type queryProfile struct {
	class    string
	sites    []string
	features *obs.QueryFeatures
}

// newWorkloadCollector wires the journal (disk ring under cfg.WorkloadDir,
// falling back to memory-only like the slow log), the regret table, and —
// when cfg.ShadowSample > 0 — the shadow sampler.
func newWorkloadCollector(s *Server, cfg Config) *workloadCollector {
	journal, err := workload.OpenJournal(workload.Options{Dir: cfg.WorkloadDir})
	if err != nil {
		if cfg.Logger != nil {
			cfg.Logger.Error("workload journal disk ring unavailable; keeping records in memory only",
				slog.String("dir", cfg.WorkloadDir), slog.Any("err", err))
		}
		journal, _ = workload.OpenJournal(workload.Options{})
	}
	wc := &workloadCollector{
		journal:  journal,
		regret:   workload.NewRegret(0),
		profiles: map[string]*queryProfile{},
	}
	if cfg.ShadowSample > 0 {
		wc.sampler = newShadowSampler(s, wc, cfg)
	}
	return wc
}

// profile resolves (computing and caching if needed) the query's profile.
// Returns nil when profiling fails — the journal record then carries run
// actuals without features, which is still useful ground truth.
func (wc *workloadCollector) profile(sc *reqScope) *queryProfile {
	key := sc.dataset + "\xff" + strconv.FormatUint(sc.gen, 10) + "\xff" + sc.canonical
	wc.profMu.Lock()
	if p, ok := wc.profiles[key]; ok {
		wc.profMu.Unlock()
		return p
	}
	wc.profMu.Unlock()
	rep, feats, err := sc.query.ProfileQuery(sc.strat)
	if err != nil {
		return nil
	}
	p := &queryProfile{
		class:    workload.ClassKey(rep),
		sites:    workload.EnforcementSites(rep),
		features: feats,
	}
	wc.profMu.Lock()
	if len(wc.profiles) >= maxProfileCache {
		wc.profiles = map[string]*queryProfile{}
	}
	wc.profiles[key] = p
	wc.profMu.Unlock()
	return p
}

// observe journals one finished /v1/query request and, when sampling is on,
// offers it to the shadow executor. Called from the instrument middleware
// after the response is written.
func (s *Server) observeWorkload(sc *reqScope, endpoint string, status int, dur time.Duration) {
	wc := s.workload
	if wc == nil || endpoint != kindQuery || sc.query == nil {
		return
	}
	prof := wc.profile(sc)
	rec := &workload.Record{
		Kind:             workload.KindQuery,
		Time:             time.Now(),
		TraceID:          sc.tc.TraceID,
		RequestID:        sc.reqID,
		Dataset:          sc.dataset,
		Generation:       sc.gen,
		QueryHash:        workload.QueryHash(sc.canonical),
		Strategy:         sc.strategy,
		Status:           status,
		Code:             sc.code,
		Cached:           sc.cached,
		DurationMS:       float64(dur) / float64(time.Millisecond),
		CandidatesPruned: sc.pruned,
	}
	if prof != nil {
		rec.Class = prof.class
		rec.EnforcedAt = prof.sites
		rec.Features = prof.features
	}
	if sc.tracer != nil {
		rec.Phases = telemetry.PhasesFromReport(sc.tracer.Report())
	}
	if sc.prune != nil {
		rec.PruneSites = sc.prune.Snapshot()
	}
	wc.journal.Append(rec)
	if status == http.StatusOK {
		wc.regret.ObserveChosen(rec.Class, sc.strategy)
		if wc.sampler != nil && prof != nil {
			wc.sampler.offer(sc, prof)
		}
	}
}

// Close stops the sampler (waiting, up to a bounded grace, for an in-flight
// re-run to abort under the cancelled base context) and closes the journal.
// Appends from an executor that outlives the grace land on the closed
// journal and are counted as drops, never lost writes.
func (wc *workloadCollector) Close() error {
	if wc == nil {
		return nil
	}
	if wc.sampler != nil && !wc.sampler.wait() {
		if log := wc.sampler.s.log; log != nil {
			log.Warn("shadow executor still running at drain deadline; closing journal")
		}
	}
	return wc.journal.Close()
}

// handleWorkload serves GET /v1/workload: journal + sampler state and the
// live per-class feature/latency rollups.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	resp := &WorkloadResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID,
		Enabled: s.workload != nil,
	}
	if wc := s.workload; wc != nil {
		st := wc.journal.State()
		resp.Journal = &st
		resp.Classes = wc.journal.Rollups()
		if wc.sampler != nil {
			ss := wc.sampler.state()
			resp.Sampler = &ss
		}
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// handleWorkloadRegret serves GET /v1/workload/regret: the measured regret
// table by query classification × strategy.
func (s *Server) handleWorkloadRegret(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	resp := &RegretResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID,
	}
	if wc := s.workload; wc != nil {
		resp.Enabled = wc.sampler != nil
		if wc.sampler != nil {
			resp.SampleFraction = wc.sampler.sample
			resp.Strategies = wc.sampler.strategyNames()
		}
		resp.Classes = wc.regret.Snapshot()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// workloadStatz is the /statz section.
func (s *Server) workloadStatz() map[string]any {
	wc := s.workload
	out := map[string]any{"enabled": wc != nil}
	if wc == nil {
		return out
	}
	out["journal"] = wc.journal.State()
	if wc.sampler != nil {
		out["sampler"] = wc.sampler.state()
	}
	return out
}
