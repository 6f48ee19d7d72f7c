// Package plan is the query planner: it resolves strategy auto to a concrete
// strategy by the paper's rule over constraint classes (Figure 7 and the
// mining orders weighed in Section 5.2), read off the compiled query's
// constraint shapes with no pass over the data:
//
//   - no 2-var constraint: cap — CAP pushes the 1-var constraints and there
//     is nothing to reduce;
//   - a 2-var constraint registers a dynamic bound that prunes T: optimized,
//     whose dovetailed counting tightens that bound while T is still being
//     mined;
//   - otherwise: sequential — T to completion, then S under the exact bounds
//     of the finished T lattice, which prune S at least as hard as the
//     iterative ones.
//
// Decisions are a pure function of the shape.
package plan

import (
	"sync"

	"repro/internal/obs"
)

// SchemaVersion versions the Decision wire shape.
const SchemaVersion = 1

// Strategy names, in the public (wire) spelling used by the cfq API, the
// workload journal and the benchmark. internal/plan deliberately speaks
// only these names: mapping to core.Strategy happens at the cfq boundary,
// so strategy selection literals stay inside this package.
const (
	Optimized  = "optimized"
	NoJmax     = "nojmax"
	CAP        = "cap"
	Apriori    = "apriori"
	FM         = "fm"
	Sequential = "sequential"
)

// coreNames maps wire spellings to core.Strategy.String() spellings. Kept
// as data (not core.Strategy values) so the package stays a pure decision
// layer with no dependency on the engine.
var coreNames = map[string]string{
	Optimized:  "optimized",
	NoJmax:     "optimized-nojmax",
	CAP:        "cap-1var",
	Apriori:    "apriori+",
	FM:         "fm",
	Sequential: "sequential",
}

// WireName translates a core engine spelling back to the wire name
// (e.g. "apriori+" → "apriori"). Unknown names pass through.
func WireName(core string) string {
	for wire, cn := range coreNames {
		if cn == core {
			return wire
		}
	}
	return core
}

// mDecisions counts planner decisions by chosen strategy.
var mDecisions = obs.NewCounterVec("plan_decisions_total", "strategy")

// Shape is what the rule reads of a compiled query.
type Shape struct {
	// TwoVar says the query has at least one 2-var constraint.
	TwoVar bool
	// BoundsT says some 2-var constraint registers a dynamic bound that
	// prunes T (twovar.BoundsT).
	BoundsT bool
}

// Decision is the planner's executable output for one query.
type Decision struct {
	Schema   int    `json:"schema"`
	Strategy string `json:"strategy"`
	// Reason names the rule that fired.
	Reason string `json:"reason"`
}

// Choice converts the decision to its EXPLAIN rendering.
func (d *Decision) Choice() *obs.PlanChoice {
	if d == nil {
		return nil
	}
	return &obs.PlanChoice{Strategy: d.Strategy, Reason: d.Reason}
}

// Options configure a Planner. The rule has no settings; the type stays so
// callers keep one constructor shape.
type Options struct{}

// Planner makes strategy decisions and counts them. Safe for concurrent use.
type Planner struct {
	mu        sync.Mutex
	decisions map[string]int64 // by strategy
}

// New builds a planner.
func New(Options) *Planner {
	return &Planner{decisions: map[string]int64{}}
}

// Rule applies the rule to the query's shape, counting nothing.
func Rule(s Shape) *Decision {
	d := &Decision{Schema: SchemaVersion}
	switch {
	case !s.TwoVar:
		d.Strategy, d.Reason = CAP, "no 2-var constraint"
	case s.BoundsT:
		d.Strategy, d.Reason = Optimized, "a dynamic bound prunes T"
	default:
		d.Strategy, d.Reason = Sequential, "no dynamic bound prunes T"
	}
	return d
}

// Decide applies the rule to the query's shape and counts the decision.
func (p *Planner) Decide(s Shape) *Decision {
	d := Rule(s)
	mDecisions.WithLabels(d.Strategy).Inc()
	p.mu.Lock()
	p.decisions[d.Strategy]++
	p.mu.Unlock()
	return d
}

// State is the planner's introspection view (/statz).
type State struct {
	Decisions map[string]int64 `json:"decisions,omitempty"`
}

// State snapshots the planner.
func (p *Planner) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	var st State
	if len(p.decisions) > 0 {
		st.Decisions = make(map[string]int64, len(p.decisions))
		for k, v := range p.decisions {
			st.Decisions[k] = v
		}
	}
	return st
}
