package cfq

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/plan"
	"repro/internal/rules"
)

// defaultPlanner serves Prepare and every strategy-auto entry point that
// does not supply its own planner. Hosting processes that report their own
// decision counts (the server's /statz) pass their own planner through
// PrepareWith.
var defaultPlanner = plan.New(plan.Options{})

// Prepared is a compiled, planned query — the Prepare half of the
// Parse → Prepare → Execute split, and the only thing that executes a CFQ:
// every Query.Run*/Explain* entry point and Session.Run prepare first and
// run through here. It captures the dataset snapshot and the planner's
// decision once; each Run replays the executable plan without
// re-classifying constraints or re-planning, which is what makes
// prepared handles (and the server's plan cache) cheap to re-execute.
//
// A Prepared always answers over the snapshot captured at Prepare time: a
// dataset mutated afterwards does not change the answer. Holders that must
// never serve stale answers (the server's prepared-handle path) detect the
// generation change themselves and re-prepare.
type Prepared struct {
	icfq     core.CFQ
	budget   *Budget
	strat    Strategy
	decision *plan.Decision
}

// Prepare compiles and plans the query. It is
// PrepareContext(context.Background(), strat).
func (q *Query) Prepare(strat Strategy) (*Prepared, error) {
	return q.PrepareContext(context.Background(), strat)
}

// PrepareContext compiles and plans the query using the process-wide
// default planner.
func (q *Query) PrepareContext(ctx context.Context, strat Strategy) (*Prepared, error) {
	return q.PrepareWith(ctx, nil, strat)
}

// PrepareWith compiles and plans the query with an explicit planner (nil
// uses the default planner). With strategy Auto the planner's rule reads the
// compiled constraint shapes — whether there is a 2-var constraint, and
// whether one registers a dynamic bound that prunes T — with no pass over
// the data, and the chosen strategy is baked into the prepared plan; when ctx
// carries a Tracer a "plan:decide" span records the choice. Any other
// strategy skips planning entirely and prepares that strategy as-is.
func (q *Query) PrepareWith(ctx context.Context, pl *plan.Planner, strat Strategy) (p *Prepared, err error) {
	defer recoverToError(&err)
	icfq, err := q.compile()
	if err != nil {
		return nil, err
	}
	if pl == nil {
		pl = defaultPlanner
	}
	return prepare(ctx, pl.Decide, icfq, q.budget, strat), nil
}

// prepare plans a compiled query (PrepareWith after compilation), resolving
// Auto with decide.
func prepare(ctx context.Context, decide func(plan.Shape) *plan.Decision, icfq core.CFQ, budget *Budget, strat Strategy) *Prepared {
	p := &Prepared{icfq: icfq, budget: budget, strat: strat}
	if strat != Auto {
		return p
	}
	tracer := obs.FromContext(ctx)
	var sp *obs.Span
	if tracer != nil {
		sp = tracer.Start("plan:decide")
	}
	d := decide(plan.Shape{TwoVar: len(icfq.Constraints2) > 0, BoundsT: core.BoundsT(icfq)})
	// The rule picks among wire names ParseStrategy knows: no error to handle.
	p.strat, _ = ParseStrategy(d.Strategy)
	p.decision = d
	if sp != nil {
		sp.SetAttrs(obs.String("strategy", d.Strategy), obs.String("reason", d.Reason))
		sp.End(nil)
	}
	return p
}

// Strategy returns the concrete strategy the plan executes (never Auto;
// AprioriPlus for session plans).
func (p *Prepared) Strategy() Strategy { return p.strat }

// Decision returns the planner's decision, or nil when the strategy was
// fixed by the caller or the plan runs through a Session.
func (p *Prepared) Decision() *plan.Decision { return p.decision }

// execute is the one place a CFQ is evaluated: a fresh Budget pool, the
// engine run, the process-wide metrics, and the error translation.
func (p *Prepared) execute(ctx context.Context) (*core.Result, error) {
	icfq := p.icfq
	start := time.Now()
	icfq.Budget = p.budget.internal(start)
	ires, err := core.Run(ctx, icfq, p.strat.internal())
	if err != nil {
		publishRun(time.Since(start), nil, err)
		return nil, convertErr(err)
	}
	publishRun(time.Since(start), &ires.Stats, nil)
	return ires, nil
}

// Run executes the prepared plan. It is RunContext(context.Background()).
func (p *Prepared) Run() (*Result, error) {
	return p.RunContext(context.Background())
}

// RunContext executes the prepared plan under ctx. Each call starts a
// fresh Budget pool. A cancelled or expired context aborts mining at the
// next checkpoint and returns an error wrapping ctx.Err(); an exhausted
// Budget returns a *BudgetError with the partial stats; internal panics
// (malformed data reaching engine invariants) are converted to errors at
// this boundary. No classification or planning happens here — the plan was
// fixed at Prepare time.
func (p *Prepared) RunContext(ctx context.Context) (res *Result, err error) {
	defer recoverToError(&err)
	ires, err := p.execute(ctx)
	if err != nil {
		return nil, err
	}
	return convertResult(ctx, ires), nil
}

// RunRulesContext executes the prepared plan and derives rules S ⇒ T from
// the valid pairs, sorted by descending confidence.
func (p *Prepared) RunRulesContext(ctx context.Context, params RuleParams) (out []Rule, err error) {
	defer recoverToError(&err)
	ires, err := p.execute(ctx)
	if err != nil {
		return nil, err
	}
	irules, err := rules.FromPairs(p.icfq.DB, ires.ValidS(), ires.ValidT(), ires.Pairs, rules.Params{
		MinConfidence:   params.MinConfidence,
		MinLift:         params.MinLift,
		MinJointSupport: params.MinJointSupport,
		SkipOverlapping: params.SkipOverlapping,
	})
	if err != nil {
		return nil, err
	}
	out = make([]Rule, len(irules))
	for i, r := range irules {
		out[i] = Rule{
			S:            itemsOf(r.S),
			T:            itemsOf(r.T),
			SupportS:     r.SupportS,
			SupportT:     r.SupportT,
			SupportUnion: r.SupportUnion,
			Confidence:   r.Confidence,
			Lift:         r.Lift,
		}
	}
	return out, nil
}

// Explain renders the prepared plan's EXPLAIN report without running it
// (and without a database pass: the selectivity estimates read
// per-generation statistics); plans chosen by the planner carry the decision
// (chosen strategy, the rule that fired) in the report's planner node.
func (p *Prepared) Explain() (rep *ExplainReport, err error) {
	defer recoverToError(&err)
	rep, err = core.BuildExplain(p.icfq, p.strat.internal())
	if err != nil {
		return nil, err
	}
	if p.decision != nil {
		rep.Planner = p.decision.Choice()
	}
	return rep, nil
}

// ExplainAnalyzeContext executes the prepared plan like RunContext and
// returns, alongside the result, the plan report annotated with the run's
// actual per-constraint pruning. If ctx does not already carry a PruneSet,
// one is installed for the duration of the run.
func (p *Prepared) ExplainAnalyzeContext(ctx context.Context) (res *Result, rep *ExplainReport, err error) {
	defer recoverToError(&err)
	if rep, err = p.Explain(); err != nil {
		return nil, nil, err
	}
	prune := obs.PruningFromContext(ctx)
	if prune == nil {
		prune = obs.NewPruneSet()
		ctx = obs.WithPruning(ctx, prune)
	}
	ires, err := p.execute(ctx)
	if err != nil {
		return nil, nil, err
	}
	core.AnalyzeExplain(rep, ires, prune)
	return convertResult(ctx, ires), rep, nil
}

// AnalyzeCapture builds the plan report for an already-finished run of this
// plan from its attributed pruning counters: the plan is rendered fresh
// (like Explain, without a database pass) and annotated with the given
// PruneSet and pruned total. It is the slow-record capture path — no Result
// or plan internals of the run survive, yet the report's sum contract still
// holds: SumPruned() == pruned, with sites that only a live plan could
// claim landing in OtherPruned.
func (p *Prepared) AnalyzeCapture(prune *PruneSet, pruned int64) (*ExplainReport, error) {
	rep, err := p.Explain()
	if err != nil {
		return nil, err
	}
	core.AnalyzeCapture(rep, pruned, prune)
	return rep, nil
}
