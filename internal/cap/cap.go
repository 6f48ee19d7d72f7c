// Package cap implements the CAP algorithm of Ng, Lakshmanan, Han & Pang
// (SIGMOD'98): levelwise frequent-set mining with 1-variable constraints
// pushed as deeply as their classification allows —
//
//   - succinct universal parts filter the item domain once (item-level
//     constraint checks only, the MGF's selection step);
//   - succinct existential parts steer candidate generation (a Required
//     item class with required-first ordering);
//   - anti-monotone non-succinct constraints (sum bounds, cardinality
//     caps) are pushed as levelwise candidate filters, like frequency;
//   - everything else (monotone-only, avg, ≠-forms) gets its sound induced
//     weakening pushed and is re-checked on the final frequent sets.
//
// The package also provides the Apriori⁺ baseline (mine everything, then
// test every frequent set against every constraint) and its form over a
// cached lattice (FilterLattice), and all of them report the ccc cost
// counters of Section 6.2.
package cap

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// Query is a 1-var constrained frequent set query over one itemset
// variable.
type Query struct {
	// DB is the transaction database. Required.
	DB *txdb.DB
	// MinSupport is the absolute support threshold.
	MinSupport int
	// Domain restricts the variable to these items (nil = all active
	// items). 1-var constraints are classified relative to this domain.
	Domain itemset.Set
	// Constraints is the conjunction of 1-var constraints on the variable.
	Constraints []constraint.Constraint
	// ExtraChecks, when non-nil, supplies additional anti-monotone checks
	// for each level, tested after the query's own (the CFQ engine uses it
	// to inject the Jmax-derived bounds, which tighten between levels). It
	// is asked once per level (see mine.Config.Checks); each check names the
	// counter its tests are added to and the site its rejections charge.
	ExtraChecks func(level int) []mine.Check
	// MaxLevel stops mining after this level; 0 means unlimited.
	MaxLevel int
	// Workers sets the support-counting parallelism (see mine.Config).
	Workers int
	// PresetL1, when non-nil, supplies already-counted frequent singletons
	// so level 1 costs nothing (see mine.Config.PresetL1). The CFQ engine
	// uses it to re-plan with reduced constraints after the first counting
	// iteration.
	PresetL1 []mine.Counted
	// Budget, when non-nil, caps the resources the run may consume (see
	// mine.Budget). Shared by pointer so one budget can span several
	// runners.
	Budget *mine.Budget
	// Label, when non-empty, prefixes trace span names (the CFQ engine
	// labels its two runners "S" and "T" so a dovetailed run's spans stay
	// distinguishable).
	Label string
}

// spanName prefixes a span name with the query label, when set.
func spanName(label, name string) string {
	if label == "" {
		return name
	}
	return label + ":" + name
}

// Check is one condition of a generate-and-test pass, with the pruning site
// its rejections are charged to.
type Check struct {
	Cond constraint.Constraint
	Site string
}

// pass is one generate-and-test pass over a list of checks, with each
// check's site resolved once for the whole pass.
type pass struct {
	checks []Check
	sites  []*obs.PruneSite // parallel to checks
	stats  *mine.Stats
}

func newPass(checks []Check, stats *mine.Stats, prune *obs.PruneSet) pass {
	sites := make([]*obs.PruneSite, len(checks))
	for i, ch := range checks {
		sites[i] = prune.Site(ch.Site)
	}
	return pass{checks, sites, stats}
}

// passes is the generate-and-test step every post-mining filter shares
// (Apriori⁺ over mined or cached lattices, CAP's final verification, the
// engine's final dynamic bounds): s is kept when it satisfies every check.
// Each evaluation is one set-level constraint check; a rejected set is one
// pruned candidate, charged to the failing check's site.
func (p pass) passes(s itemset.Set) bool {
	for i, ch := range p.checks {
		p.stats.SetConstraintChecks++
		if !ch.Cond.Satisfies(s) {
			p.stats.CandidatesPruned++
			p.sites[i].Add(1)
			return false
		}
	}
	return true
}

// Filter runs the generate-and-test step over sets, in place: the result
// reuses sets' backing array, so callers pass slices they own.
func Filter(sets []mine.Counted, checks []Check, stats *mine.Stats, prune *obs.PruneSet) []mine.Counted {
	p := newPass(checks, stats, prune)
	kept := sets[:0]
	for _, c := range sets {
		if p.passes(c.Set) {
			kept = append(kept, c)
		}
	}
	return kept
}

// TrimLevels drops trailing empty levels.
func TrimLevels(levels [][]mine.Counted) [][]mine.Counted {
	for len(levels) > 0 && len(levels[len(levels)-1]) == 0 {
		levels = levels[:len(levels)-1]
	}
	return levels
}

// Result is the outcome of a constrained mining run.
type Result struct {
	// Levels holds the valid frequent sets per level (index 0 = size 1).
	Levels [][]mine.Counted
	// FrequentItems is L1: every frequent item of the (universally
	// filtered) domain, whether or not the singleton is valid. Its
	// attribute projections provide the quasi-succinct reduction constants.
	// FilterLattice leaves it nil.
	FrequentItems itemset.Set
	// Stats carries the ccc cost counters.
	Stats mine.Stats
	// Lattice is the cached lattice FilterLattice filtered (nil for a mined
	// run), and Positions the lattice position of each valid set, in the
	// order Sets flattens the levels.
	Lattice   *Lattice
	Positions []int32
}

// Sets flattens the per-level results.
func (r *Result) Sets() []mine.Counted {
	var out []mine.Counted
	for _, lv := range r.Levels {
		out = append(out, lv...)
	}
	return out
}

// Count returns the total number of valid frequent sets.
func (r *Result) Count() int {
	n := 0
	for _, lv := range r.Levels {
		n += len(lv)
	}
	return n
}

// Runner is a step-at-a-time CAP execution, created by Prepare. The CFQ
// engine dovetails two Runners (one per variable) level by level.
type Runner struct {
	q              Query
	lw             *mine.Levelwise
	stats          *mine.Stats
	tracer         *obs.Tracer
	prune          *obs.PruneSet
	finalChecks    []Check
	hasExistential bool
	unsat          bool
	levels         [][]mine.Counted
	l1             itemset.Set
}

// Step advances one level and returns the valid frequent sets found there
// (after final verification of non-fully-enforced constraints), plus
// whether mining has finished. A non-nil error means the run was cancelled
// or exceeded its budget; the runner is then permanently done and Result()
// packages the levels completed before the abort.
func (r *Runner) Step() ([]mine.Counted, bool, error) {
	if r.lw.Done() {
		return nil, true, r.lw.Err()
	}
	sets, _, err := r.lw.Step()
	if err != nil {
		return nil, true, err
	}
	if r.lw.Level() == 1 {
		r.l1 = r.lw.FrequentItems()
	}
	if len(r.finalChecks) > 0 {
		// The final-verification checks are cap's own work, outside the
		// levelwise engine's level spans; they get a sibling delta span.
		var fsp *obs.Span
		if r.tracer != nil {
			fsp = r.tracer.Start(spanName(r.q.Label, fmt.Sprintf("finalcheck-%d", r.lw.Level()))).
				WithStats(r.stats.Counters())
		}
		sets = Filter(sets, r.finalChecks, r.stats, r.prune)
		if fsp != nil {
			fsp.SetAttrs(obs.Int("kept", len(sets)))
			fsp.End(r.stats.Counters())
		}
	}
	if r.unsat {
		sets = nil
	}
	if r.lw.Level() > len(r.levels) {
		r.levels = append(r.levels, sets)
	}
	return sets, r.lw.Done(), nil
}

// Err returns the error that stopped the run, if any.
func (r *Runner) Err() error { return r.lw.Err() }

// Done reports whether mining has finished.
func (r *Runner) Done() bool { return r.lw.Done() }

// Level returns the last completed level.
func (r *Runner) Level() int { return r.lw.Level() }

// LastFrequent returns every frequent set counted at the last completed
// level, including invalid ones — the complete level that Jmax summaries
// require.
func (r *Runner) LastFrequent() []mine.Counted { return r.lw.LastFrequent() }

// FrequentItems returns L1 (available after the first Step).
func (r *Runner) FrequentItems() itemset.Set { return r.l1 }

// FrequentItemCounts returns L1 with supports, for PresetL1 re-planning.
func (r *Runner) FrequentItemCounts() []mine.Counted { return r.lw.FrequentItemCounts() }

// HasExistential reports whether an existential (Required-class) push is
// active. When it is, LastFrequent is not the complete set of frequent
// sets of the level, and Jmax summaries over it would be unsound.
func (r *Runner) HasExistential() bool { return r.hasExistential }

// Stats returns a snapshot of the accumulated cost counters.
func (r *Runner) Stats() mine.Stats { return *r.stats }

// Result packages the levels mined so far.
func (r *Runner) Result() *Result {
	levels := TrimLevels(r.levels)
	if r.unsat {
		levels = nil
	}
	return &Result{Levels: levels, FrequentItems: r.l1, Stats: *r.stats}
}

// Run executes CAP on the query to completion. On cancellation or budget
// exhaustion it returns the wrapped ctx.Err() or *mine.BudgetError.
func Run(ctx context.Context, q Query) (*Result, error) {
	r, err := Prepare(ctx, q)
	if err != nil {
		return nil, err
	}
	for !r.Done() {
		if _, _, err := r.Step(); err != nil {
			return nil, err
		}
	}
	return r.Result(), nil
}

// Prepare classifies the query's constraints, assembles the pushdown plan
// and returns a step-wise Runner. ctx governs the whole run.
func Prepare(ctx context.Context, q Query) (*Runner, error) {
	if q.DB == nil {
		return nil, fmt.Errorf("cap: Query.DB is nil")
	}
	stats := &mine.Stats{}
	domain := q.Domain
	if domain == nil {
		domain = q.DB.ActiveItems()
	}
	// The classify span covers constraint classification and the universal/
	// existential item-level filtering; it ends before mine.New.
	tracer := obs.FromContext(ctx)
	var csp *obs.Span
	if tracer != nil {
		csp = tracer.Start(spanName(q.Label, "classify"),
			obs.Int("constraints", len(q.Constraints)), obs.Int("domain", domain.Len())).
			WithStats(stats.Counters())
	}

	// Normalize the conjunction first: merge redundant interval
	// constraints, detect contradictions.
	simplified, unsatConj := constraint.Simplify(q.Constraints, domain)
	if unsatConj {
		// The conjunction is contradictory: nothing will be valid. The
		// unsatisfiable path below still computes L1 (the 2-var reduction
		// constants must exist) while reporting no sets.
		q.Constraints = nil
	} else {
		q.Constraints = simplified
	}

	// Classify every constraint against the base domain. Predicates and
	// classes keep a pointer to their source constraint so every pruning
	// event below can be charged to the constraint that caused it.
	type analyzed struct {
		c  constraint.Constraint
		cl constraint.Class
	}
	an := make([]analyzed, len(q.Constraints))
	for i, c := range q.Constraints {
		an[i] = analyzed{c, c.Classify(domain)}
	}
	prune := obs.PruningFromContext(ctx)

	// 1. Universal item predicates filter the domain (item-level checks).
	// Every prune site below is named once, here, not per rejection.
	type itemPred struct {
		pred constraint.ItemPredicate
		src  constraint.Constraint
		site *obs.PruneSite // charged when a universal predicate excludes an item
	}
	var universals []itemPred
	var existentials []itemPred
	var amChecks []mine.Check // anti-monotone, non-succinct
	var finalChecks []Check
	for _, a := range an {
		snf := a.cl.Succinct
		if snf == nil {
			snf = a.cl.Induced
		}
		if snf != nil {
			if snf.Universal != nil {
				universals = append(universals, itemPred{snf.Universal, a.c,
					prune.Site(spanName(q.Label, "domain-filter:"+a.c.String()))})
			}
			for _, ex := range snf.Existential {
				existentials = append(existentials, itemPred{pred: ex, src: a.c})
			}
		}
		if a.cl.AntiMonotone && a.cl.Succinct == nil {
			amChecks = append(amChecks, mine.Check{Cond: a.c, Counter: &stats.SetConstraintChecks,
				Site: prune.Site(spanName(q.Label, "candidate-filter:"+a.c.String()))})
		}
		if !a.cl.FullyEnforced() {
			finalChecks = append(finalChecks, Check{a.c, spanName(q.Label, "final-filter:"+a.c.String())})
		}
	}

	filtered := make([]itemset.Item, 0, domain.Len())
	for _, it := range domain {
		ok := true
		for _, u := range universals {
			stats.ItemConstraintChecks++
			if !u.pred(it) {
				ok = false
				// One excluded item is one pruned singleton candidate: the
				// MGF's selection step enforced at candidate generation.
				stats.CandidatesPruned++
				u.site.Add(1)
				break
			}
		}
		if ok {
			filtered = append(filtered, it)
		}
	}
	fdomain := itemset.FromSorted(filtered)

	// 2. Existential predicates become item classes; the most selective
	// one steers generation, the rest gate reporting.
	type itemClass struct {
		set  itemset.Set
		src  constraint.Constraint
		site *obs.PruneSite // charged when a reporting class rejects a set
	}
	classes := make([]itemClass, 0, len(existentials))
	for _, ex := range existentials {
		var members []itemset.Item
		for _, it := range fdomain {
			stats.ItemConstraintChecks++
			if ex.pred(it) {
				members = append(members, it)
			}
		}
		classes = append(classes, itemClass{set: itemset.New(members...), src: ex.src})
	}
	sort.SliceStable(classes, func(i, j int) bool { return classes[i].set.Len() < classes[j].set.Len() })

	var required itemClass
	var reportClasses []itemClass
	unsatisfiable := unsatConj
	for i, cl := range classes {
		if cl.set.Empty() {
			unsatisfiable = true
		}
		if i == 0 {
			required = cl
		} else {
			cl.site = prune.Site(spanName(q.Label, "report-filter:"+cl.src.String()))
			reportClasses = append(reportClasses, cl)
		}
	}

	cfg := mine.Config{
		DB:         q.DB,
		MinSupport: q.MinSupport,
		Domain:     fdomain,
		MaxLevel:   q.MaxLevel,
		Workers:    q.Workers,
		PresetL1:   q.PresetL1,
		Budget:     q.Budget,
		Stats:      stats,
		Label:      q.Label,
	}
	if required.set != nil && !required.set.Empty() {
		cfg.Required = required.set
		cfg.RequiredSite = spanName(q.Label, "generate:"+required.src.String())
	}
	if len(reportClasses) > 0 {
		// Charging closures (see mine.Config.RequiredSite): the engine
		// counts the rejection, the closure names the constraint-site.
		cfg.ReportValid = func(s itemset.Set) bool {
			for _, cl := range reportClasses {
				stats.SetConstraintChecks++
				if !s.Intersects(cl.set) {
					cl.site.Add(1)
					return false
				}
			}
			return true
		}
	}
	switch {
	case q.ExtraChecks != nil:
		var level []mine.Check
		cfg.Checks = func(k int) []mine.Check {
			level = append(append(level[:0], amChecks...), q.ExtraChecks(k)...)
			return level
		}
	case len(amChecks) > 0:
		cfg.Checks = func(int) []mine.Check { return amChecks }
	}

	if unsatisfiable {
		// An empty existential class: no set can be valid. Still compute
		// L1 (one level, reporting nothing) so reduction constants exist.
		cfg.Required = nil
		cfg.RequiredSite = ""
		site := prune.Site(spanName(q.Label, "report-filter:unsatisfiable"))
		cfg.ReportValid = func(itemset.Set) bool {
			site.Add(1)
			return false
		}
		cfg.MaxLevel = 1
	}

	if csp != nil {
		csp.SetAttrs(obs.Int("filtered_domain", fdomain.Len()),
			obs.Int("final_checks", len(finalChecks)))
		csp.End(stats.Counters())
	}

	lw, err := mine.New(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &Runner{
		q:              q,
		lw:             lw,
		stats:          stats,
		tracer:         tracer,
		prune:          prune,
		finalChecks:    finalChecks,
		hasExistential: len(classes) > 0,
		unsat:          unsatisfiable,
	}, nil
}

// AprioriPlus is the naive baseline: mine every frequent set over the
// domain level-wise, then test each against every constraint
// (generate-and-test). ctx cancellation and budget overruns abort the run
// with the mining layer's wrapped error.
func AprioriPlus(ctx context.Context, q Query) (*Result, error) {
	if q.DB == nil {
		return nil, fmt.Errorf("cap: Query.DB is nil")
	}
	stats := &mine.Stats{}
	tracer := obs.FromContext(ctx)
	prune := obs.PruningFromContext(ctx)
	checks := filterChecks(q)
	lw, err := mine.New(ctx, mine.Config{
		DB:         q.DB,
		MinSupport: q.MinSupport,
		Domain:     q.Domain,
		MaxLevel:   q.MaxLevel,
		Workers:    q.Workers,
		Budget:     q.Budget,
		Stats:      stats,
		Label:      q.Label,
	})
	if err != nil {
		return nil, err
	}
	var levels [][]mine.Counted
	var l1 itemset.Set
	for !lw.Done() {
		sets, _, err := lw.Step()
		if err != nil {
			return nil, err
		}
		if lw.Level() == 1 {
			l1 = lw.FrequentItems()
		}
		// The generate-and-test pass Apriori⁺ burns set-level checks on;
		// its per-level span makes that cost visible next to CAP's.
		var fsp *obs.Span
		if tracer != nil && len(checks) > 0 {
			fsp = tracer.Start(spanName(q.Label, fmt.Sprintf("filter-%d", lw.Level()))).
				WithStats(stats.Counters())
		}
		kept := Filter(sets, checks, stats, prune)
		if fsp != nil {
			fsp.SetAttrs(obs.Int("kept", len(kept)))
			fsp.End(stats.Counters())
		}
		if lw.Level() > len(levels) {
			levels = append(levels, kept)
		}
	}
	return &Result{Levels: TrimLevels(levels), FrequentItems: l1, Stats: *stats}, nil
}

// filterChecks is Apriori⁺'s check list: every constraint in query order,
// charged at "<label>:filter:<constraint>".
func filterChecks(q Query) []Check {
	checks := make([]Check, len(q.Constraints))
	for i, con := range q.Constraints {
		checks[i] = Check{con, spanName(q.Label, "filter:"+con.String())}
	}
	return checks
}
