package serve

import (
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/cfq"
	"repro/internal/obs/workload"
)

// The workload collector is the per-request record path: instrument calls
// record once per finished request, which builds at most one
// workload.Record — classification and enforcement sites, executed strategy
// and plan decision, admission outcome, phase deltas, attributed pruning,
// and for a slow or failed request the query text and analyzed plan — and
// hands it to the one journal. All of it happens after the response is written; the
// client never waits on it.
type workloadCollector struct {
	journal *workload.Journal

	// journalAll writes a record for every /v1/query (Config.Workload or
	// WorkloadDir); without it only slow or failed requests leave one
	// (Config.SlowQuery).
	journalAll bool
}

// newWorkloadCollector wires the journal: a disk ring under cfg.WorkloadDir,
// or cfg.SlowLogDir when only the slow log is configured; memory-only when
// neither is set or the directory is unusable.
func newWorkloadCollector(cfg Config) *workloadCollector {
	dir := cfg.WorkloadDir
	if dir == "" {
		dir = cfg.SlowLogDir
	}
	journal, err := workload.OpenJournal(dir)
	if err != nil {
		// The journal is diagnostics, not correctness: fall back to memory
		// rather than refusing to serve.
		if cfg.Logger != nil {
			cfg.Logger.Error("workload journal disk ring unavailable; keeping the slow view and rollups in memory only",
				slog.String("dir", dir), slog.Any("err", err))
		}
		journal, _ = workload.OpenJournal("")
	}
	return &workloadCollector{
		journal:    journal,
		journalAll: cfg.Workload || cfg.WorkloadDir != "",
	}
}

// planProfile is what a record says about the plan that ran: the class key
// and enforcement sites (workload.ClassKey, workload.EnforcementSites) of
// its ExplainReport. A journaled /v1/query evaluation keeps one on the
// cachedResult it stores and hands its collapse flight, so hits and followers
// read it with no lookup. The evaluation's own record renders it after the
// response (or a hit first), so no stored result keeps a plan alive.
type planProfile struct {
	once   sync.Once
	render func() (*cfq.ExplainReport, error) // dropped once rendered
	class  string
	sites  []string
}

// read renders the profile on first use. A render that fails leaves it
// empty: the record then carries run actuals without a class.
func (p *planProfile) read() (class string, sites []string) {
	p.once.Do(func() {
		if rep, err := p.render(); err == nil {
			p.class, p.sites = workload.ClassKey(rep), workload.EnforcementSites(rep)
		}
		p.render = nil
	})
	return p.class, p.sites
}

// explainPlan renders the plan a request without a profile ran, or else (a
// shed, a failed prepare) its mode's: Apriori⁺ in session mode, else sc.strat.
func (sc *reqScope) explainPlan() (*cfq.ExplainReport, error) {
	switch {
	case sc.prepared != nil:
		return sc.prepared.Explain()
	case sc.strategy == modeSession:
		return sc.query.ExplainQuery(cfq.AprioriPlus)
	}
	return sc.query.ExplainQuery(sc.strat)
}

// record is the one finish function of a request that built a query: it
// decides whether the request was slow (crossed the threshold, exhausted
// its budget, or failed server-side) and whether it leaves a record (every
// /v1/query when journaling, any slow request when the slow log is on),
// builds the record once, and appends it. Called from the instrument
// middleware after the response is written.
func (s *Server) record(sc *reqScope, endpoint string, status int, dur time.Duration) {
	wc := s.workload
	if wc == nil || sc.query == nil {
		return
	}
	threshold := s.cfg.SlowQuery
	slow := threshold > 0 && (dur >= threshold ||
		sc.code == CodeBudgetExhausted || status >= http.StatusInternalServerError)
	journaled := wc.journalAll && endpoint == kindQuery
	if !slow && !journaled {
		return
	}
	kind := workload.KindRequest
	if endpoint == kindQuery {
		kind = workload.KindQuery
	}
	level := s.degradeLevel()
	rec := &workload.Record{
		Kind:             kind,
		Time:             time.Now(),
		TraceID:          sc.tc.TraceID,
		RequestID:        sc.reqID,
		Endpoint:         endpoint,
		Dataset:          sc.dataset,
		Generation:       sc.gen,
		QueryHash:        workload.QueryHash(sc.canonical),
		Strategy:         sc.strategy,
		Status:           status,
		Code:             sc.code,
		Cached:           sc.cached,
		Priority:         sc.priority,
		QueueWaitMS:      float64(sc.queueWait) / float64(time.Millisecond),
		Collapsed:        sc.collapsed,
		DegradationLevel: level,
		DurationMS:       float64(dur) / float64(time.Millisecond),
		Phases:           sc.tracer.Phases(),
		CandidatesPruned: sc.pruned,
	}
	if sc.prune != nil {
		rec.PruneSites = sc.prune.Snapshot()
	}
	if sc.prepared != nil {
		rec.Plan = sc.prepared.Decision().Choice()
	}
	prof := sc.profile
	if prof == nil {
		prof = &planProfile{render: sc.explainPlan}
	}
	rec.Class, rec.EnforcedAt = prof.read()
	if slow {
		rec.Slow = true
		rec.ThresholdMS = float64(threshold) / float64(time.Millisecond)
		rec.Query = sc.canonical
		// The report is of the plan that ran, analyzed with this run's
		// pruning; a request that never reached evaluation has none, and
		// the memory watchdog's degraded state skips the rebuild.
		if sc.prepared != nil && level == 0 {
			if rep, err := sc.prepared.AnalyzeCapture(sc.prune, sc.pruned); err == nil {
				rec.Explain = rep
			}
		}
	}
	wc.journal.Append(rec)
}

// Close closes the journal; later appends are counted as drops.
func (wc *workloadCollector) Close() error {
	if wc == nil {
		return nil
	}
	return wc.journal.Close()
}

// journaling returns the collector when the workload journal proper is on —
// nil for a server that only keeps the slow log, whose /v1/workload surfaces
// read disabled.
func (s *Server) journaling() *workloadCollector {
	if wc := s.workload; wc != nil && wc.journalAll {
		return wc
	}
	return nil
}

// handleWorkload serves GET /v1/workload: journal state and the live
// per-class latency/pruning rollups.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	sc := s.scope(r)
	resp := &WorkloadResponse{
		Schema: SchemaVersion, RequestID: sc.reqID, TraceID: sc.tc.TraceID,
		Enabled: s.journaling() != nil,
	}
	if wc := s.journaling(); wc != nil {
		st := wc.journal.State()
		resp.Journal = &st
		resp.Classes = wc.journal.Rollups()
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// workloadStatz is the /statz section.
func (s *Server) workloadStatz() map[string]any {
	wc := s.journaling()
	out := map[string]any{"enabled": wc != nil}
	if wc == nil {
		return out
	}
	out["journal"] = wc.journal.State()
	return out
}
