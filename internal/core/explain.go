package core

import (
	"fmt"
	"strings"

	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/obs"
)

// This file builds obs.ExplainReport — the EXPLAIN / EXPLAIN ANALYZE view
// of the optimizer. BuildExplain renders the plan without running anything;
// AnalyzeExplain joins a finished run's attributed pruning counters onto
// the plan.
//
// The join works on the pruning-site key grammar
//
//	<label>:<stage>[:<constraint>]
//
// (see obs.PruneSet): a site whose detail renders the same constraint as a
// plan entry is charged to that entry; "jmax" and dynamic "final-filter"
// sites are charged to their bound; everything else — frequency sites,
// engine-generic sites, and constraints the conjunction simplifier rewrote
// into a form no plan entry renders — lands in the report's OtherPruned
// bucket. The partition is exact by construction: every site is charged to
// exactly one bucket, so the report's buckets sum to the run's total
// pruned candidates.

// classSummary renders a 1-var constraint's classification.
func classSummary(cl constraint.Class) string {
	var tags []string
	if cl.Succinct != nil {
		tags = append(tags, "succinct")
	} else if cl.Induced != nil {
		tags = append(tags, "induced succinct weakening")
	}
	if cl.AntiMonotone {
		tags = append(tags, "anti-monotone")
	}
	if cl.Monotone {
		tags = append(tags, "monotone")
	}
	if len(tags) == 0 {
		tags = append(tags, "neither (final check only)")
	}
	return strings.Join(tags, ", ")
}

// capEnforcedAt lists where CAP enforces a 1-var constraint of the given
// classification.
func capEnforcedAt(cl constraint.Class) []string {
	snf := cl.Succinct
	if snf == nil {
		snf = cl.Induced
	}
	var out []string
	if snf != nil {
		if snf.Universal != nil {
			out = append(out, "candidate generation (domain filter)")
		}
		if len(snf.Existential) > 0 {
			out = append(out, "candidate generation (required class / report filter)")
		}
	}
	if cl.AntiMonotone && cl.Succinct == nil {
		out = append(out, "counting (levelwise candidate filter)")
	}
	if !cl.FullyEnforced() {
		out = append(out, "final filter")
	}
	return out
}

// describeQuery renders the query in one line.
func describeQuery(q CFQ) string {
	return fmt.Sprintf("{(S, T)} over %d transactions, minsup(S)=%d, minsup(T)=%d; %d 1-var on S, %d on T, %d 2-var",
		q.DB.Len(), q.MinSupportS, q.MinSupportT,
		len(q.ConstraintsS), len(q.ConstraintsT), len(q.Constraints2))
}

// BuildExplain renders the optimizer's plan for the query under the given
// strategy as an ExplainReport, without running the query: each constraint's
// classification (one Classify per constraint) and where the strategy
// enforces it. It reads no data.
func BuildExplain(q CFQ, strat Strategy) (*obs.ExplainReport, error) {
	if err := q.normalize(); err != nil {
		return nil, err
	}
	domS, domT := q.domains()
	row, err := strat.row()
	if err != nil {
		return nil, err
	}
	rep := &obs.ExplainReport{
		Schema:   obs.ReportSchema,
		Query:    describeQuery(q),
		Strategy: row.name,
	}

	side := func(v string, cons []constraint.Constraint, dom itemset.Set) {
		// Apriori⁺ and FM test the original conjunction as-is; every other
		// strategy mines through CAP, which simplifies it first — the plan
		// must render the constraints the runtime sites will name.
		list := cons
		unsat := false
		if row.oneVarAt == "" {
			list, unsat = constraint.Simplify(cons, dom)
		}
		if unsat {
			rep.Notes = append(rep.Notes,
				v+"-side conjunction is unsatisfiable: no "+v+"-set can be valid")
			for _, c := range cons {
				rep.Constraints = append(rep.Constraints, &obs.ConstraintExplain{
					Constraint: c.String(),
					Variable:   v,
					Class:      classSummary(c.Classify(dom)),
					EnforcedAt: []string{"report filter (unsatisfiable conjunction)"},
				})
			}
			return
		}
		for _, c := range list {
			cl := c.Classify(dom)
			ce := &obs.ConstraintExplain{
				Constraint: c.String(),
				Variable:   v,
				Class:      classSummary(cl),
			}
			if row.oneVarAt != "" {
				ce.EnforcedAt = []string{row.oneVarAt}
			} else {
				ce.EnforcedAt = capEnforcedAt(cl)
			}
			rep.Constraints = append(rep.Constraints, ce)
		}
	}
	side("S", q.ConstraintsS, domS)
	side("T", q.ConstraintsT, domT)

	for _, c2 := range q.Constraints2 {
		cl := c2.Classify(domS, domT)
		class := "non-quasi-succinct"
		if cl.QuasiSuccinct {
			class = "quasi-succinct"
		}
		if cl.AntiMonotone {
			class += ", anti-monotone"
		}
		ce := &obs.ConstraintExplain{
			Constraint: fmt.Sprintf("%v", c2),
			Variable:   "S,T",
			Class:      class,
		}
		switch {
		case !row.reduce:
		case cl.QuasiSuccinct:
			ce.EnforcedAt = append(ce.EnforcedAt, "reduction to succinct 1-var conditions after level 1")
		default:
			ce.EnforcedAt = append(ce.EnforcedAt, "induced weaker 1-var conditions after level 1")
			if row.dynamicAt != "" {
				ce.EnforcedAt = append(ce.EnforcedAt, row.dynamicAt)
			}
		}
		ce.EnforcedAt = append(ce.EnforcedAt, "pair formation")
		rep.Constraints = append(rep.Constraints, ce)
	}
	return rep, nil
}

// stageWords are the site-key stage tokens (obs.PruneSet's key grammar).
var stageWords = map[string]bool{
	"domain-filter": true, "generate": true, "candidate-filter": true,
	"report-filter": true, "final-filter": true, "filter": true,
	"jmax": true, "materialize": true, "frequency": true, "pairs": true,
}

// splitSite parses "<label>:<stage>[:<detail>]" (the label and detail are
// both optional in the grammar; "pairs:<c2>" has no label).
func splitSite(site string) (label, stage, detail string) {
	i := strings.Index(site, ":")
	if i < 0 {
		return "", site, ""
	}
	first, rest := site[:i], site[i+1:]
	if stageWords[first] {
		return "", first, rest
	}
	label = first
	if j := strings.Index(rest, ":"); j >= 0 {
		return label, rest[:j], rest[j+1:]
	}
	return label, rest, ""
}

// varForLabel maps a site label to the plan variable it mines for.
func varForLabel(label string) string {
	switch label {
	case "S", "fm-S":
		return "S"
	case "T", "fm-T":
		return "T"
	}
	return ""
}

// AnalyzeExplain completes a plan-mode report with a finished run's
// actuals: reduced-condition and dynamic-bound entries from the run's plan
// (they exist only after level 1), per-site pruning attribution from the
// run's PruneSet, and the total.
func AnalyzeExplain(rep *obs.ExplainReport, res *Result, prune *obs.PruneSet) {
	rep.Analyzed = true
	if res == nil {
		return
	}
	rep.TotalPruned = res.Stats.CandidatesPruned

	byCons := consIndex(rep)
	plan := res.Plan
	if plan != nil {
		addReduced := func(v string, conds []string) {
			for _, cond := range conds {
				if byCons[consKey(v, cond)] != nil {
					// A reduction that reproduced an original constraint (or
					// another 2-var's condition): the existing entry absorbs
					// the charges.
					continue
				}
				ce := &obs.ConstraintExplain{
					Constraint: cond,
					Variable:   v,
					Class:      "reduced 1-var condition",
					Origin:     plan.ReducedFrom[cond],
					EnforcedAt: []string{"pushed into phase-2 counting"},
				}
				rep.Constraints = append(rep.Constraints, ce)
				byCons[consKey(v, cond)] = ce
			}
		}
		addReduced("S", plan.ReducedS)
		addReduced("T", plan.ReducedT)
		for _, be := range plan.Bounds { // be is a copy: charges must not land in the plan
			rep.Bounds = append(rep.Bounds, &be)
		}
	}
	distributeCharges(rep, prune)
}

// AnalyzeCapture completes a plan report with a finished run's pruning when
// only the attributed counters survive (slow-query capture after the
// Result is gone, or a cache-served run where the plan was never rebuilt).
// Unlike AnalyzeExplain it adds no plan-derived reduced conditions or bound
// trajectories — sites that would have matched them land in OtherPruned
// instead, so the report's sum contract (SumPruned() == pruned) still
// holds.
func AnalyzeCapture(rep *obs.ExplainReport, pruned int64, prune *obs.PruneSet) {
	rep.Analyzed = true
	rep.TotalPruned = pruned
	distributeCharges(rep, prune)
}

// consKey indexes a constraint entry by (variable, constraint).
func consKey(v, cons string) string { return v + "\x00" + cons }

// consIndex maps the report's constraint entries by consKey (first entry
// wins on duplicates).
func consIndex(rep *obs.ExplainReport) map[string]*obs.ConstraintExplain {
	byCons := map[string]*obs.ConstraintExplain{}
	for _, ce := range rep.Constraints {
		if _, dup := byCons[consKey(ce.Variable, ce.Constraint)]; !dup {
			byCons[consKey(ce.Variable, ce.Constraint)] = ce
		}
	}
	return byCons
}

// distributeCharges routes every attributed pruning site onto the report
// entry that owns it — bound entries for jmax/final-filter sites,
// constraint entries for pair and per-constraint sites — with OtherPruned
// absorbing whatever matches nothing, so the charges always sum to
// TotalPruned.
func distributeCharges(rep *obs.ExplainReport, prune *obs.PruneSet) {
	byCons := consIndex(rep)
	byBound := map[string]*obs.BoundExplain{}
	for _, be := range rep.Bounds {
		if _, dup := byBound[be.Bound]; !dup {
			byBound[be.Bound] = be
		}
	}

	chargeC := func(ce *obs.ConstraintExplain, site string, n int64) {
		if ce.PrunedBySite == nil {
			ce.PrunedBySite = obs.Counters{}
		}
		ce.PrunedBySite[site] += n
		ce.ActualPruned += n
	}
	chargeB := func(be *obs.BoundExplain, site string, n int64) {
		if be.PrunedBySite == nil {
			be.PrunedBySite = obs.Counters{}
		}
		be.PrunedBySite[site] += n
		be.ActualPruned += n
	}
	other := func(site string, n int64) {
		if rep.OtherPruned == nil {
			rep.OtherPruned = obs.Counters{}
		}
		rep.OtherPruned[site] += n
	}

	for site, n := range prune.Snapshot() {
		label, stage, detail := splitSite(site)
		switch stage {
		case "jmax", "final-filter":
			// A dynamic bound's final re-filter shares the stage name with
			// CAP's final checks; the bound label disambiguates.
			if be := byBound[detail]; be != nil {
				chargeB(be, site, n)
				continue
			}
		case "pairs":
			if ce := byCons[consKey("S,T", detail)]; ce != nil {
				chargeC(ce, site, n)
				continue
			}
		}
		if detail != "" {
			if ce := byCons[consKey(varForLabel(label), detail)]; ce != nil {
				chargeC(ce, site, n)
				continue
			}
		}
		other(site, n)
	}
}
