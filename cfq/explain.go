package cfq

import (
	"context"

	"repro/internal/obs"
	"repro/internal/plan"
)

// EXPLAIN / EXPLAIN ANALYZE for the optimizer. ExplainQuery renders the
// plan — each pushed constraint's classification, where it will be
// enforced, and an item-frequency estimate of its selectivity — without
// mining anything (the item supports are the compiled database's own
// statistics, computed once per generation: no scan).
// ExplainAnalyze runs the query and joins the attributed pruning counters
// onto the plan: per constraint, the candidates actually discarded at each
// of its pruning sites. The report's pruning buckets partition the run's
// total pruned candidates exactly (the attribution contract of the
// internal mining stack), so "explained" pruning always sums to the
// Stats.CandidatesPruned the run reports.

// ExplainReport is the machine-readable EXPLAIN / EXPLAIN ANALYZE output.
// Its Tree method renders the human-readable plan tree.
type ExplainReport = obs.ExplainReport

// ConstraintExplain annotates one constraint of an ExplainReport.
type ConstraintExplain = obs.ConstraintExplain

// BoundExplain annotates one Jmax dynamic bound of an ExplainReport.
type BoundExplain = obs.BoundExplain

// PruneSet accumulates pruning counters attributed per constraint-site.
// ExplainAnalyzeContext installs one automatically; install your own with
// WithPruning to observe several runs' attribution in aggregate.
type PruneSet = obs.PruneSet

// NewPruneSet creates an empty pruning-attribution accumulator.
func NewPruneSet() *PruneSet { return obs.NewPruneSet() }

// WithPruning returns a context carrying the PruneSet. Evaluations run
// under that context charge every discarded candidate to the pruning site
// (constraint × stage) responsible. A nil set returns ctx unchanged.
func WithPruning(ctx context.Context, p *PruneSet) context.Context {
	return obs.WithPruning(ctx, p)
}

// PruningFromContext returns the PruneSet carried by ctx, or nil.
func PruningFromContext(ctx context.Context) *PruneSet {
	return obs.PruningFromContext(ctx)
}

// ExplainQuery renders the optimizer's plan for the query under the given
// strategy without running it. Under Auto the plan is the one the planner's
// rule picks; an EXPLAIN is not an execution, so no planner counts the
// decision.
func (q *Query) ExplainQuery(strat Strategy) (rep *ExplainReport, err error) {
	defer recoverToError(&err)
	icfq, err := q.compile()
	if err != nil {
		return nil, err
	}
	return prepare(context.Background(), plan.Rule, icfq, q.budget, strat).Explain()
}

// ExplainAnalyze is ExplainAnalyzeContext(context.Background(), strat).
func (q *Query) ExplainAnalyze(strat Strategy) (*Result, *ExplainReport, error) {
	return q.ExplainAnalyzeContext(context.Background(), strat)
}

// ExplainAnalyzeContext evaluates the query like RunContext and returns,
// alongside the result, the plan report annotated with the run's actual
// per-constraint pruning (see Prepared.ExplainAnalyzeContext).
func (q *Query) ExplainAnalyzeContext(ctx context.Context, strat Strategy) (*Result, *ExplainReport, error) {
	p, err := q.PrepareContext(ctx, strat)
	if err != nil {
		return nil, nil, err
	}
	return p.ExplainAnalyzeContext(ctx)
}
