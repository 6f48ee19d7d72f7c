package cfq

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/obs"
)

// Query is a CFQ under construction. Build one with NewQuery, chain the
// configuration methods, then call Run. Queries are reusable and
// independent of each other; methods mutate and return the receiver.
type Query struct {
	ds           *Dataset
	minSupS      int
	minSupT      int
	domS, domT   []int
	consS, consT []Constraint
	cons2        []Constraint2
	maxPairs     int
	maxLevel     int
	workers      int
	budget       *Budget
	// explicitSupS/T record whether a parsed query set its own freq()
	// thresholds (see ApplyDefaultSupports).
	explicitSupS, explicitSupT bool
}

// NewQuery starts a query against the dataset with a default minimum
// support of 1 transaction.
func NewQuery(ds *Dataset) *Query {
	return &Query{ds: ds, minSupS: 1, minSupT: 1}
}

// MinSupport sets the absolute support threshold for both variables.
func (q *Query) MinSupport(n int) *Query {
	q.minSupS, q.minSupT = n, n
	return q
}

// MinSupportFraction sets the support threshold for both variables as a
// fraction of the number of transactions (rounded up, at least 1).
func (q *Query) MinSupportFraction(f float64) *Query {
	n := int(f*float64(q.ds.NumTransactions()) + 0.999999)
	if n < 1 {
		n = 1
	}
	return q.MinSupport(n)
}

// MinSupportS sets the S-variable threshold only.
func (q *Query) MinSupportS(n int) *Query { q.minSupS = n; return q }

// MinSupportT sets the T-variable threshold only.
func (q *Query) MinSupportT(n int) *Query { q.minSupT = n; return q }

// ApplyDefaultSupports copies def's thresholds for each side whose
// threshold this query did not set via an explicit freq() conjunct. It is
// meant for callers combining ParseQuery output with configured defaults.
func (q *Query) ApplyDefaultSupports(def *Query) *Query {
	if !q.explicitSupS {
		q.minSupS = def.minSupS
	}
	if !q.explicitSupT {
		q.minSupT = def.minSupT
	}
	return q
}

// DomainS restricts S to the given items.
func (q *Query) DomainS(items ...int) *Query { q.domS = items; return q }

// DomainT restricts T to the given items.
func (q *Query) DomainT(items ...int) *Query { q.domT = items; return q }

// WhereS adds 1-var constraints on S.
func (q *Query) WhereS(cs ...Constraint) *Query {
	q.consS = append(q.consS, cs...)
	return q
}

// WhereT adds 1-var constraints on T.
func (q *Query) WhereT(cs ...Constraint) *Query {
	q.consT = append(q.consT, cs...)
	return q
}

// Where2 adds 2-var constraints binding S and T.
func (q *Query) Where2(cs ...Constraint2) *Query {
	q.cons2 = append(q.cons2, cs...)
	return q
}

// MaxPairs caps the number of materialized answer pairs (the count of all
// valid pairs is still reported).
func (q *Query) MaxPairs(n int) *Query { q.maxPairs = n; return q }

// MaxLevel stops each lattice after the given level (0 = unlimited).
func (q *Query) MaxLevel(n int) *Query { q.maxLevel = n; return q }

// Workers sets the support-counting parallelism (values below 2 keep
// counting serial; results are identical either way).
func (q *Query) Workers(n int) *Query { q.workers = n; return q }

// Budget caps the resources each evaluation of this query may consume; an
// exceeded limit aborts the run with a *BudgetError carrying the partial
// stats. Each Run/RunContext call starts a fresh consumption pool.
func (q *Query) Budget(b Budget) *Query { q.budget = &b; return q }

// FrequentSet is a frequent itemset with its support.
type FrequentSet struct {
	Items   []int
	Support int
}

// Pair is one CFQ answer: a valid (S, T) pair of frequent sets. In a
// Result each side is a copy of the ValidS/ValidT entry it names and shares
// that entry's Items slice, so a pair's Items must not be modified in place.
type Pair struct {
	S, T FrequentSet
}

// Stats reports the work a strategy performed — the cost components of the
// paper's ccc-optimality analysis plus scan accounting.
type Stats struct {
	// CandidatesCounted is the number of sets whose support was counted.
	CandidatesCounted int64
	// ItemConstraintChecks / SetConstraintChecks split constraint-checking
	// invocations by operand size; ccc-optimal strategies use only the
	// former during set computation.
	ItemConstraintChecks int64
	SetConstraintChecks  int64
	// PairChecks counts the key comparisons final pair formation made:
	// binary-search probes for the leading 2-var constraint's partner
	// ranges plus one per constraint tested on a pair. A materialized row
	// costs one more range probe and no test of the leading constraint.
	// Each set's aggregate is evaluated once, so this is far below |S|·|T|
	// per constraint.
	PairChecks int64
	// CandidatesPruned counts candidates generated or materialized and then
	// discarded — by a constraint, a frequency test, or pair rejection.
	// ExplainAnalyze attributes this total per constraint-site.
	CandidatesPruned int64
	// FrequentSets / ValidSets count discovered sets.
	FrequentSets int64
	ValidSets    int64
	// DBScans counts full passes over the transaction data the run made:
	// none, except the fm strategy's one scan per counted set. Level 1 reads
	// the dataset's per-item supports, level 2 its generation's pair supports
	// and levels ≥ 3 the generation's item bit columns; the one pass that
	// builds those is the generation's, counted in no run.
	DBScans int64
	// LatticeBytes estimates the memory allocated for lattice state,
	// cumulatively over the run (what Budget.MaxLatticeBytes bounds). The
	// generation's shared pair supports and item columns are charged to no
	// run.
	LatticeBytes int64
	// Checkpoints counts the cancellation/budget checkpoints passed — the
	// granularity at which the evaluation could have been interrupted.
	Checkpoints int64
}

// Result is a CFQ answer. Its JSON form is AppendJSON's (MarshalJSON
// delegates to it).
type Result struct {
	// Pairs is the answer (possibly truncated to MaxPairs); PairCount is
	// the true total.
	Pairs     []Pair
	PairCount int64
	// ValidS/ValidT are the frequent valid sets per side.
	ValidS, ValidT []FrequentSet
	// LevelsS/LevelsT are the same, grouped by cardinality: each level is a
	// window of ValidS/ValidT (capacity capped at its length), not a copy.
	LevelsS, LevelsT [][]FrequentSet
	// Stats reports the strategy's work counters.
	Stats Stats
	// Report is the per-phase trace of the evaluation, present when the
	// run's context carried a Tracer (see WithTracer). Its Totals equal
	// Stats.
	Report *RunReport `json:",omitempty"`

	// pairIdx is the engine's answer, parallel to Pairs: the ValidS/ValidT
	// positions each pair's sets were copied from. AppendJSON encodes each
	// indexed set once through it.
	pairIdx []core.Pair
}

// Canonical renders the query in a normalized textual form: effective
// frequency thresholds, domains, and the sorted constraint lists. Two
// queries with the same canonical form compute the same answer over the
// same dataset snapshot, which is what makes it usable as a result-cache
// key (whitespace and conjunct order in the source text do not matter —
// the form is derived from the parsed structure, not the input string).
// Budget and Workers do not affect the answer and are excluded.
func (q *Query) Canonical() string {
	parts := []string{
		fmt.Sprintf("freq(S) >= %d", q.minSupS),
		fmt.Sprintf("freq(T) >= %d", q.minSupT),
	}
	dom := func(label string, items []int) {
		if items == nil {
			return
		}
		sorted := append([]int(nil), items...)
		sort.Ints(sorted)
		parts = append(parts, fmt.Sprintf("%s in %v", label, sorted))
	}
	dom("S", q.domS)
	dom("T", q.domT)
	group := func(prefix string, n int, str func(int) string) {
		g := make([]string, n)
		for i := range g {
			g[i] = prefix + str(i)
		}
		sort.Strings(g)
		parts = append(parts, g...)
	}
	group("S: ", len(q.consS), func(i int) string { return q.consS[i].str })
	group("T: ", len(q.consT), func(i int) string { return q.consT[i].str })
	group("2: ", len(q.cons2), func(i int) string { return q.cons2[i].str })
	if q.maxPairs > 0 {
		parts = append(parts, fmt.Sprintf("maxpairs=%d", q.maxPairs))
	}
	if q.maxLevel > 0 {
		parts = append(parts, fmt.Sprintf("maxlevel=%d", q.maxLevel))
	}
	return strings.Join(parts, " & ")
}

// compile translates the public query into the internal CFQ. The dataset's
// compiled snapshot is captured once here, so the whole evaluation sees one
// consistent transaction database even if the dataset is mutated while the
// query runs.
func (q *Query) compile() (core.CFQ, error) {
	var zero core.CFQ
	if q.ds == nil {
		return zero, fmt.Errorf("cfq: query has no dataset")
	}
	db, _, err := q.ds.snapshot()
	if err != nil {
		return zero, err
	}
	icfq := core.CFQ{
		DB:          db,
		MinSupportS: q.minSupS,
		MinSupportT: q.minSupT,
		MaxPairs:    q.maxPairs,
		MaxLevel:    q.maxLevel,
		Workers:     q.workers,
	}
	conv := func(items []int) (itemset.Set, error) {
		if items == nil {
			return nil, nil
		}
		out := make([]itemset.Item, len(items))
		for i, it := range items {
			if it < 0 || it >= q.ds.numItems {
				return nil, fmt.Errorf("cfq: domain item %d outside [0, %d)", it, q.ds.numItems)
			}
			out[i] = itemset.Item(it)
		}
		return itemset.New(out...), nil
	}
	if icfq.DomainS, err = conv(q.domS); err != nil {
		return zero, err
	}
	if icfq.DomainT, err = conv(q.domT); err != nil {
		return zero, err
	}
	for _, c := range q.consS {
		ic, err := c.build(q.ds)
		if err != nil {
			return zero, err
		}
		icfq.ConstraintsS = append(icfq.ConstraintsS, ic)
	}
	for _, c := range q.consT {
		ic, err := c.build(q.ds)
		if err != nil {
			return zero, err
		}
		icfq.ConstraintsT = append(icfq.ConstraintsT, ic)
	}
	for _, c := range q.cons2 {
		ic, err := c.build(q.ds)
		if err != nil {
			return zero, err
		}
		icfq.Constraints2 = append(icfq.Constraints2, ic)
	}
	return icfq, nil
}

// Run evaluates the query with the given strategy. It is
// RunContext(context.Background(), strat).
func (q *Query) Run(strat Strategy) (*Result, error) {
	return q.RunContext(context.Background(), strat)
}

// RunContext evaluates the query with the given strategy under ctx: it
// prepares (planning only under Auto) and runs the prepared plan, with
// Prepared.RunContext's cancellation, budget and panic-boundary semantics.
func (q *Query) RunContext(ctx context.Context, strat Strategy) (*Result, error) {
	p, err := q.PrepareContext(ctx, strat)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx)
}

// Rule is an association rule S ⇒ T derived from a valid CFQ pair — the
// second phase of the paper's architecture.
type Rule struct {
	S, T                             []int
	SupportS, SupportT, SupportUnion int
	// Confidence is sup(S ∪ T)/sup(S); Lift normalizes it by T's base rate.
	Confidence, Lift float64
}

// RuleParams filters generated rules.
type RuleParams struct {
	// MinConfidence keeps rules with confidence >= this value.
	MinConfidence float64
	// MinLift keeps rules with lift >= this value (0 disables).
	MinLift float64
	// MinJointSupport requires sup(S ∪ T) to reach this count (0 disables).
	MinJointSupport int
	// SkipOverlapping drops pairs whose sides share items.
	SkipOverlapping bool
}

// RunRules evaluates the query and derives rules S ⇒ T from the valid
// pairs, sorted by descending confidence. Rules are formed from the
// materialized pairs, so raise MaxPairs (or leave it 0 = unlimited) to
// cover the whole answer. It is RunRulesContext(context.Background(), ...).
func (q *Query) RunRules(strat Strategy, p RuleParams) ([]Rule, error) {
	return q.RunRulesContext(context.Background(), strat, p)
}

// RunRulesContext is RunRules under a context and the query's Budget, with
// the same cancellation and budget semantics as RunContext.
func (q *Query) RunRulesContext(ctx context.Context, strat Strategy, p RuleParams) ([]Rule, error) {
	prep, err := q.PrepareContext(ctx, strat)
	if err != nil {
		return nil, err
	}
	return prep.RunRulesContext(ctx, p)
}

func itemsOf(s itemset.Set) []int {
	out := make([]int, s.Len())
	for i, it := range s {
		out[i] = int(it)
	}
	return out
}

// convertLevels renders one side's lattice levels. The flat list is one
// exact-size slice, every set's Items is a window of one item arena, and
// each level is a full-slice-expression window of the flat list, so
// byLevel[k] aliases flat. An empty level is nil, as is flat when there are
// no sets; an empty set's Items is non-nil.
func convertLevels(levels [][]mine.Counted) (flat []FrequentSet, byLevel [][]FrequentSet) {
	if len(levels) == 0 {
		return nil, nil
	}
	nSets, nItems := 0, 0
	for _, lv := range levels {
		nSets += len(lv)
		for _, c := range lv {
			nItems += c.Set.Len()
		}
	}
	byLevel = make([][]FrequentSet, len(levels))
	if nSets == 0 {
		return nil, byLevel
	}
	flat = make([]FrequentSet, 0, nSets)
	arena := make([]int, nItems)
	for k, lv := range levels {
		lo := len(flat)
		for _, c := range lv {
			n := c.Set.Len()
			items := arena[:n:n]
			arena = arena[n:]
			for i, it := range c.Set {
				items[i] = int(it)
			}
			flat = append(flat, FrequentSet{Items: items, Support: c.Support})
		}
		if hi := len(flat); hi > lo {
			byLevel[k] = flat[lo:hi:hi]
		}
	}
	return flat, byLevel
}

func convertStats(s mine.Stats) Stats {
	return Stats{
		CandidatesCounted:    s.CandidatesCounted,
		ItemConstraintChecks: s.ItemConstraintChecks,
		SetConstraintChecks:  s.SetConstraintChecks,
		PairChecks:           s.PairChecks,
		CandidatesPruned:     s.CandidatesPruned,
		FrequentSets:         s.FrequentSets,
		ValidSets:            s.ValidSets,
		DBScans:              s.DBScans,
		LatticeBytes:         s.LatticeBytes,
		Checkpoints:          s.Checkpoints,
	}
}

// convertResult renders an engine result in its public form, attaching the
// span report when ctx carries a Tracer.
func convertResult(ctx context.Context, ires *core.Result) *Result {
	res := &Result{PairCount: ires.PairCount, Report: obs.FromContext(ctx).Report()}
	res.ValidS, res.LevelsS = convertLevels(ires.LevelsS)
	res.ValidT, res.LevelsT = convertLevels(ires.LevelsT)
	if len(ires.Pairs) > 0 {
		// A pair's sets are the already-converted valid sets it indexes.
		res.Pairs = make([]Pair, len(ires.Pairs))
		for i, p := range ires.Pairs {
			res.Pairs[i] = Pair{S: res.ValidS[p.SI], T: res.ValidT[p.TI]}
		}
		res.pairIdx = ires.Pairs
	}
	res.Stats = convertStats(ires.Stats)
	return res
}
