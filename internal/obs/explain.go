package obs

import (
	"fmt"
	"strings"
)

// ExplainReport is the machine-readable form of EXPLAIN / EXPLAIN ANALYZE:
// the optimizer's plan as an annotated constraint list — per constraint its
// classification, the sites where it is enforced, the planner's estimated
// selectivity, and (after an analyzed run) the actual candidates pruned,
// attributed per site. The obs package owns only the shape and rendering;
// the core optimizer builds it.
//
// The report deliberately carries no wall times, so its JSON is
// deterministic for a given query and dataset (golden-testable).
type ExplainReport struct {
	// Schema versions the JSON shape (ReportSchema).
	Schema int `json:"schema"`
	// Query is a one-line rendering of the query being explained.
	Query string `json:"query,omitempty"`
	// Strategy names the execution strategy the plan is for.
	Strategy string `json:"strategy"`
	// Analyzed is true when the report carries actuals from a run.
	Analyzed bool `json:"analyzed"`
	// Planner, when the strategy was chosen by the planner (strategy
	// "auto"), records the decision: chosen strategy and the rule that fired.
	Planner *PlanChoice `json:"planner,omitempty"`
	// Constraints lists every pushed constraint with its plan annotations
	// (1-var constraints, 2-var constraints, and — after an analyzed
	// optimized run — the reduced 1-var conditions with their origins).
	Constraints []*ConstraintExplain `json:"constraints,omitempty"`
	// Bounds lists the Jmax dynamic pruning hooks.
	Bounds []*BoundExplain `json:"bounds,omitempty"`
	// OtherPruned holds analyzed pruning attributed to non-constraint
	// sites (frequency thresholds, engine-generic sites) and to sites whose
	// constraint rendering no longer matches a plan entry (the conjunction
	// simplifier can merge constraints into new forms).
	OtherPruned Counters `json:"other_pruned,omitempty"`
	// TotalPruned is the run's total pruned candidates; by the attribution
	// contract it equals the sum over all constraint/bound/other sites.
	TotalPruned int64 `json:"total_pruned"`
	// Notes carries plan-level caveats worth surfacing.
	Notes []string `json:"notes,omitempty"`
}

// ConstraintExplain annotates one constraint of the plan.
type ConstraintExplain struct {
	// Constraint is the constraint's rendering (after per-side conjunction
	// simplification, so it matches the runtime pruning-site keys).
	Constraint string `json:"constraint"`
	// Variable is "S", "T", or "S,T" for 2-var constraints.
	Variable string `json:"variable"`
	// Class is the classification summary (anti-monotone / succinct /
	// quasi-succinct / induced / neither).
	Class string `json:"class"`
	// Origin, for conditions derived from a 2-var constraint, names it.
	Origin string `json:"origin,omitempty"`
	// EnforcedAt lists the plan stages where the constraint does work.
	EnforcedAt []string `json:"enforced_at,omitempty"`
	// EstimatedSelectivity is the planner's item-frequency estimate of the
	// fraction of candidate mass the constraint keeps (-1 when the planner
	// has no estimate).
	EstimatedSelectivity float64 `json:"estimated_selectivity"`
	// ActualPruned is the analyzed candidates-pruned total for this
	// constraint (sum of PrunedBySite).
	ActualPruned int64 `json:"actual_pruned"`
	// PrunedBySite breaks ActualPruned down by pruning site.
	PrunedBySite Counters `json:"pruned_by_site,omitempty"`
}

// BoundExplain annotates one Jmax dynamic bound.
type BoundExplain struct {
	// Bound is the stable bound description (twovar.DynamicBound.Label).
	Bound string `json:"bound"`
	// PruneSide is the variable the bound prunes.
	PruneSide string `json:"prune_side"`
	// Origin names the 2-var constraint the bound was induced from.
	Origin string `json:"origin,omitempty"`
	// Trajectory renders the bound's per-iteration tightening ("k=2:
	// sum<=57.5", …), filled by an analyzed run.
	Trajectory []string `json:"trajectory,omitempty"`
	// ActualPruned is the analyzed candidates-pruned total for this bound.
	ActualPruned int64 `json:"actual_pruned"`
	// PrunedBySite breaks ActualPruned down by pruning site.
	PrunedBySite Counters `json:"pruned_by_site,omitempty"`
}

// PlanChoice is the planner's decision as EXPLAIN renders it: the chosen
// strategy and the rule that chose it.
type PlanChoice struct {
	Strategy string `json:"strategy"`
	Reason   string `json:"reason"`
}

// selText renders an estimated selectivity.
func selText(sel float64) string {
	if sel < 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.3f", sel)
}

// siteText renders a per-site counter breakdown on one line, sites sorted.
func siteText(c Counters) string {
	parts := make([]string, 0, len(c))
	for _, k := range c.keys() {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
	}
	return strings.Join(parts, ", ")
}

// Tree renders the report as a human-readable plan tree (the stderr form of
// cmd/cfq -explain / -explain-analyze).
func (r *ExplainReport) Tree() string {
	var b strings.Builder
	title := "EXPLAIN"
	if r.Analyzed {
		title = "EXPLAIN ANALYZE"
	}
	fmt.Fprintf(&b, "%s (strategy: %s)\n", title, r.Strategy)
	if r.Query != "" {
		fmt.Fprintf(&b, "query: %s\n", r.Query)
	}

	type node struct {
		head string
		body []string
	}
	var nodes []node
	if p := r.Planner; p != nil {
		nodes = append(nodes, node{head: fmt.Sprintf("planner: chose %s (%s)", p.Strategy, p.Reason)})
	}
	for _, c := range r.Constraints {
		n := node{head: fmt.Sprintf("%s: %s", c.Variable, c.Constraint)}
		n.body = append(n.body, "class: "+c.Class)
		if c.Origin != "" {
			n.body = append(n.body, "origin: "+c.Origin)
		}
		if len(c.EnforcedAt) > 0 {
			n.body = append(n.body, "enforced at: "+strings.Join(c.EnforcedAt, ", "))
		}
		n.body = append(n.body, "est. selectivity: "+selText(c.EstimatedSelectivity))
		if r.Analyzed {
			line := fmt.Sprintf("pruned: %d", c.ActualPruned)
			if len(c.PrunedBySite) > 0 {
				line += "   [" + siteText(c.PrunedBySite) + "]"
			}
			n.body = append(n.body, line)
		}
		nodes = append(nodes, n)
	}
	for _, d := range r.Bounds {
		n := node{head: "dynamic bound: " + d.Bound}
		n.body = append(n.body, "prunes: "+d.PruneSide)
		if d.Origin != "" {
			n.body = append(n.body, "origin: "+d.Origin)
		}
		if len(d.Trajectory) > 0 {
			n.body = append(n.body, "trajectory: "+strings.Join(d.Trajectory, " → "))
		}
		if r.Analyzed {
			line := fmt.Sprintf("pruned: %d", d.ActualPruned)
			if len(d.PrunedBySite) > 0 {
				line += "   [" + siteText(d.PrunedBySite) + "]"
			}
			n.body = append(n.body, line)
		}
		nodes = append(nodes, n)
	}
	if r.Analyzed && len(r.OtherPruned) > 0 {
		n := node{head: "other pruning"}
		for _, k := range r.OtherPruned.keys() {
			n.body = append(n.body, fmt.Sprintf("%s: %d", k, r.OtherPruned[k]))
		}
		nodes = append(nodes, n)
	}

	for i, n := range nodes {
		branch, stem := "├─", "│ "
		if i == len(nodes)-1 {
			branch, stem = "└─", "  "
		}
		fmt.Fprintf(&b, "%s %s\n", branch, n.head)
		for _, line := range n.body {
			fmt.Fprintf(&b, "%s    %s\n", stem, line)
		}
	}
	if r.Analyzed {
		fmt.Fprintf(&b, "total pruned: %d\n", r.TotalPruned)
	}
	for _, note := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// SumPruned returns the sum of every analyzed pruning bucket in the report
// (constraints + bounds + other). By the attribution contract it equals
// TotalPruned; tests assert the equality.
func (r *ExplainReport) SumPruned() int64 {
	var t int64
	for _, c := range r.Constraints {
		t += c.ActualPruned
	}
	for _, d := range r.Bounds {
		t += d.ActualPruned
	}
	for _, v := range r.OtherPruned {
		t += v
	}
	return t
}
