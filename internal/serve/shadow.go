package serve

import (
	"context"
	"log/slog"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"repro/cfq"
	"repro/internal/obs/workload"
)

// defaultShadowStrategies are the alternates re-run per sampled query when
// Config.ShadowStrategies is empty: every evaluation strategy whose cost the
// paper's figures compare, plus "auto" so the planner's pick earns a measured
// wall of its own (its regret ratio is what the feedback loop folds back).
// FM is excluded by default — its multi-pass scans are expensive enough to
// crowd out user traffic even at lowest priority.
var defaultShadowStrategies = []string{"optimized", "nojmax", "cap", "apriori", "sequential", "auto"}

// shadowQueueDepth bounds jobs waiting for the shadow executor; beyond it,
// sampled queries are dropped (counted), never queued without bound.
const shadowQueueDepth = 64

// shadowPollInterval is how often the executor re-polls admission for a free
// worker slot. Polling (rather than blocking in acquire) is what makes
// shadow work lowest-priority: a user request blocked inside acquire is
// parked on the slot channel and receives a freed slot immediately, while
// the sampler only competes at its next poll tick.
const shadowPollInterval = 25 * time.Millisecond

// shadowJob is one sampled query to re-run under the alternate strategies.
type shadowJob struct {
	query     *cfq.Query // the live request's compiled query; requests are done with it by observe time
	dataset   string
	gen       uint64
	hash      string
	class     string
	chosen    string // strategy label the live path used (may be "session")
	timeout   time.Duration
	traceID   string
	requestID string
}

// shadowSampler re-executes a sampled fraction of completed queries under
// alternate strategies to measure ground-truth regret. It is deliberately
// invisible to users: re-runs go through the normal admission semaphore (at
// lowest priority, via polling tryAcquire), never touch the result cache,
// and never count toward the RED rollups or the slow-query log.
type shadowSampler struct {
	s          *Server
	wc         *workloadCollector
	sample     float64
	strategies []cfq.Strategy
	jobs       chan *shadowJob
	done       chan struct{}

	runs    atomic.Int64
	errors  atomic.Int64
	dropped atomic.Int64
}

func newShadowSampler(s *Server, wc *workloadCollector, cfg Config) *shadowSampler {
	names := cfg.ShadowStrategies
	if len(names) == 0 {
		names = defaultShadowStrategies
	}
	ss := &shadowSampler{
		s:      s,
		wc:     wc,
		sample: min(cfg.ShadowSample, 1),
		jobs:   make(chan *shadowJob, shadowQueueDepth),
		done:   make(chan struct{}),
	}
	for _, name := range names {
		strat, err := cfq.ParseStrategy(name)
		if err != nil {
			if cfg.Logger != nil {
				cfg.Logger.Error("unknown shadow strategy; skipping",
					slog.String("strategy", name), slog.Any("err", err))
			}
			continue
		}
		ss.strategies = append(ss.strategies, strat)
	}
	go ss.loop()
	return ss
}

// offer samples one completed query into the shadow queue. Called from
// observeWorkload after the response is written; never blocks.
func (ss *shadowSampler) offer(sc *reqScope, prof *queryProfile) {
	// Brownout level >= 1 pauses shadow sampling entirely: re-runs are the
	// first load the watchdog sheds, before anything user-visible.
	if ss.s.degradeLevel() >= 1 {
		ss.dropped.Add(1)
		workload.ShadowDropped()
		return
	}
	if rand.Float64() >= ss.sample {
		return
	}
	job := &shadowJob{
		query:     sc.query,
		dataset:   sc.dataset,
		gen:       sc.gen,
		hash:      workload.QueryHash(sc.canonical),
		class:     prof.class,
		chosen:    sc.strategy,
		timeout:   sc.timeout,
		traceID:   sc.tc.TraceID,
		requestID: sc.reqID,
	}
	select {
	case ss.jobs <- job:
		workload.SetShadowQueueDepth(len(ss.jobs))
	default:
		ss.dropped.Add(1)
		workload.ShadowDropped()
	}
}

// loop is the single shadow executor goroutine. One job at a time: the
// sampler measures strategies, it does not add load worth measuring.
func (ss *shadowSampler) loop() {
	defer close(ss.done)
	for {
		select {
		case <-ss.s.baseCtx.Done():
			return
		case job := <-ss.jobs:
			workload.SetShadowQueueDepth(len(ss.jobs))
			ss.runJob(job)
		}
	}
}

// shadowDrainGrace bounds how long Shutdown waits for the executor after
// cancelling the base context. An in-flight re-run normally aborts within
// one cancellation stride; the grace is a backstop so a wedged re-run can
// never hang the drain.
const shadowDrainGrace = 5 * time.Second

// wait blocks until the executor goroutine has exited, or the grace period
// passes. Shutdown cancels the base context first, so the timeout path is
// exceptional; returns false when it is taken.
func (ss *shadowSampler) wait() bool {
	select {
	case <-ss.done:
		return true
	case <-time.After(shadowDrainGrace):
		return false
	}
}

// acquireSlot polls tryAcquire at the lowest priority until a slot is free
// or the server shuts down. Returns false on shutdown.
func (ss *shadowSampler) acquireSlot() bool {
	if ss.s.adm.tryAcquire() {
		return true
	}
	ticker := time.NewTicker(shadowPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-ss.s.baseCtx.Done():
			return false
		case <-ticker.C:
			if ss.s.adm.tryAcquire() {
				return true
			}
		}
	}
}

// runJob re-runs the job's query under each alternate strategy, journals
// each run, folds successes into the regret table, and — when the live
// path's chosen strategy was itself shadowed — publishes the measured
// regret ratio (chosen wall / best wall) under the chosen label.
func (ss *shadowSampler) runJob(job *shadowJob) {
	// Skip when the dataset mutated or vanished since the live run: wall
	// times against different data would pollute the per-class table.
	if cur, ok := ss.s.reg.Generation(job.dataset); !ok || cur != job.gen {
		ss.dropped.Add(1)
		workload.ShadowDropped()
		return
	}
	// A job queued before a brownout began is dropped, not run: memory
	// pressure means the re-run's lattice allocations are the last thing
	// the process needs.
	if ss.s.degradeLevel() >= 1 {
		ss.dropped.Add(1)
		workload.ShadowDropped()
		return
	}
	walls := make(map[string]float64, len(ss.strategies))
	for _, strat := range ss.strategies {
		if !ss.acquireSlot() {
			return
		}
		ms, err := ss.runOne(job, strat)
		// Shadow walls are excluded from the admission p95 (release(0)):
		// the AIMD target tracks user-visible service time only.
		ss.s.adm.release(0)
		name := strat.String()
		ss.runs.Add(1)
		rec := &workload.Record{
			Kind:       workload.KindShadow,
			Time:       time.Now(),
			TraceID:    job.traceID,
			RequestID:  job.requestID,
			Dataset:    job.dataset,
			Generation: job.gen,
			QueryHash:  job.hash,
			Class:      job.class,
			Strategy:   name,
			Chosen:     job.chosen,
			DurationMS: ms,
		}
		if err != nil {
			rec.Error = err.Error()
			ss.errors.Add(1)
			workload.ObserveShadowRun(name, "error")
		} else {
			walls[name] = ms
			workload.ObserveShadowRun(name, "ok")
			ss.wc.regret.ObserveShadow(job.class, name, ms)
		}
		ss.wc.journal.Append(rec)
	}
	best := 0.0
	for _, ms := range walls {
		if best == 0 || ms < best {
			best = ms
		}
	}
	// "session" (and any strategy outside the shadow set) has no shadow wall
	// of its own, so no ratio — the regret table still shows its choices.
	if chosenMS, ok := walls[job.chosen]; ok && best > 0 {
		workload.ObserveRegretRatio(job.chosen, chosenMS/best)
	}
	// Feedback fold: the planner re-reads the regret and journal rollups
	// after every shadow round, so a strategy the model overrates is
	// demoted as soon as measured walls contradict the prediction.
	ss.s.foldFeedback()
}

// runOne measures one strategy's wall time under the same doubled-timeout
// hard deadline the live path uses, descending from the base context so a
// drain cancels it.
func (ss *shadowSampler) runOne(job *shadowJob, strat cfq.Strategy) (float64, error) {
	ctx := ss.s.baseCtx
	if job.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 2*job.timeout)
		defer cancel()
	}
	// Every strategy prepares through the server's planner (not the package
	// default): a fixed strategy skips planning, and "auto"'s wall includes
	// it, reflecting exactly the decisions the feedback loop is adjusting.
	start := time.Now()
	p, err := job.query.PrepareWith(ctx, ss.s.planner, strat)
	if err == nil {
		_, err = p.RunContext(ctx)
	}
	return float64(time.Since(start)) / float64(time.Millisecond), err
}

// ShadowSamplerState is the sampler's introspection view (GET /v1/workload,
// /statz).
type ShadowSamplerState struct {
	SampleFraction float64  `json:"sample_fraction"`
	Strategies     []string `json:"strategies"`
	QueueDepth     int      `json:"queue_depth"`
	Runs           int64    `json:"runs"`
	Errors         int64    `json:"errors,omitempty"`
	Dropped        int64    `json:"dropped,omitempty"`
}

func (ss *shadowSampler) strategyNames() []string {
	names := make([]string, len(ss.strategies))
	for i, st := range ss.strategies {
		names[i] = st.String()
	}
	return names
}

func (ss *shadowSampler) state() ShadowSamplerState {
	return ShadowSamplerState{
		SampleFraction: ss.sample,
		Strategies:     ss.strategyNames(),
		QueueDepth:     len(ss.jobs),
		Runs:           ss.runs.Load(),
		Errors:         ss.errors.Load(),
		Dropped:        ss.dropped.Load(),
	}
}
