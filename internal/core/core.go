// Package core implements the CFQ query engine of Section 6: given a
// constrained frequent set query {(S, T) | C}, the optimizer (Figure 7)
// separates 1-var from 2-var constraints, reduces quasi-succinct 2-var
// constraints to succinct 1-var constraints after the first counting
// iteration, induces weaker constraints plus iterative Jmax pruning for the
// non-quasi-succinct ones, hands everything to CAP on dovetailed S- and
// T-lattices, and finally forms the valid pairs.
//
// Several strategies are provided so the paper's experiments (and the ccc
// analysis) can compare them: the optimizer's strategy, an ablation without
// Jmax, CAP on 1-var constraints only, the Apriori⁺ baseline, and the FM
// full-materialization counterexample.
package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/attr"
	"repro/internal/cap"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/jmax"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/twovar"
	"repro/internal/txdb"
)

// Strategy selects a CFQ computation strategy.
type Strategy int

// The strategies.
const (
	// StrategyOptimized is the optimizer's output (Figure 7): 1-var
	// pushdown via CAP, quasi-succinct reduction of 2-var constraints,
	// induced weaker constraints and Jmax iterative pruning for the rest.
	StrategyOptimized Strategy = iota
	// StrategyOptimizedNoJmax is the ablation without iterative pruning.
	StrategyOptimizedNoJmax
	// StrategyCAPOnly pushes only the 1-var constraints (the published CAP
	// algorithm); 2-var constraints are checked at pair formation.
	StrategyCAPOnly
	// StrategyAprioriPlus mines every frequent set and tests everything at
	// the end — the paper's baseline.
	StrategyAprioriPlus
	// StrategyFM materializes every valid subset first and counts
	// afterwards — the ccc counterexample of Section 6.2. Only usable on
	// tiny item domains.
	StrategyFM
	// StrategySequential is the alternative Section 5.2 discusses instead
	// of dovetailing: mine the T lattice to completion first, then prune S
	// with the *exact* global bounds (e.g. max{sum(T.B) | freq(T)}). Best
	// possible pruning, but it forfeits the scan sharing dovetailing
	// enables — compare its DBScans/pruning trade-off against
	// StrategyOptimized.
	StrategySequential
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyOptimized:
		return "optimized"
	case StrategyOptimizedNoJmax:
		return "optimized-nojmax"
	case StrategyCAPOnly:
		return "cap-1var"
	case StrategyAprioriPlus:
		return "apriori+"
	case StrategyFM:
		return "fm"
	case StrategySequential:
		return "sequential"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists every strategy in enum order. Callers that enumerate or
// name strategies (bench harnesses, the planner) go through this and
// ParseStrategy so strategy selection stays centralized here and in
// internal/plan.
func Strategies() []Strategy {
	return []Strategy{
		StrategyOptimized, StrategyOptimizedNoJmax, StrategyCAPOnly,
		StrategyAprioriPlus, StrategyFM, StrategySequential,
	}
}

// ParseStrategy maps a strategy's String() name back to the Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for _, s := range Strategies() {
		if s.String() == name {
			return s, nil
		}
	}
	return StrategyOptimized, fmt.Errorf("core: unknown strategy %q", name)
}

// CFQ is a constrained frequent set query {(S, T) | C} over a shared
// transaction database.
type CFQ struct {
	// DB is the transaction database. Required.
	DB *txdb.DB
	// MinSupportS/MinSupportT are the absolute support thresholds for each
	// variable (values below 1 are clamped to 1).
	MinSupportS, MinSupportT int
	// DomainS/DomainT restrict the variables to item sub-domains (nil =
	// all active items). The paper's S ⊆ Item, T ⊆ Dom generality.
	DomainS, DomainT itemset.Set
	// ConstraintsS/ConstraintsT are the 1-var constraints per variable.
	ConstraintsS, ConstraintsT []constraint.Constraint
	// Constraints2 are the 2-var constraints binding S and T.
	Constraints2 []twovar.Constraint2
	// MaxPairs caps the number of materialized answer pairs (0 =
	// unlimited); PairCount always reflects the true total.
	MaxPairs int
	// MaxLevel stops each lattice after this level (0 = unlimited).
	MaxLevel int
	// Workers sets the support-counting parallelism (see mine.Config).
	Workers int
	// Budget, when non-nil, caps the resources the whole evaluation may
	// consume — both lattices and every phase draw from the same pool. An
	// overrun aborts the run with a *mine.BudgetError carrying partial
	// stats.
	Budget *mine.Budget
	// JmaxCutoff, when > 0, freezes the Jmax dynamic bounds after that many
	// dovetail iterations under StrategyOptimized: later levels stop feeding
	// the series, so bounds established early keep pruning but no further
	// summarization cost is paid. Bounds only ever stay looser than the full
	// iteration would make them, so the answer is unchanged. 0 = no cutoff.
	JmaxCutoff int
	// Lattice, when non-nil, supplies StrategyAprioriPlus's unconstrained
	// lattices in place of mining (see cap.Query.Lattice); a session plugs
	// its cache in here. Constraint-pushing strategies ignore it.
	Lattice func(ctx context.Context, cfg mine.Config) ([]mine.Counted, error)
	// Trace, when non-nil, receives one progress line per completed level
	// per variable and per optimizer phase (for -v style logging).
	Trace func(msg string)
}

// trace emits a progress line when tracing is enabled.
func (q *CFQ) trace(format string, args ...interface{}) {
	if q.Trace != nil {
		q.Trace(fmt.Sprintf(format, args...))
	}
}

// traceLevels attaches per-level progress logging to a side query.
func (q *CFQ) traceLevels(cq *cap.Query, side twovar.Side) {
	if q.Trace == nil {
		return
	}
	prev := cq.OnLevel
	cq.OnLevel = func(level int, sets []mine.Counted) {
		q.trace("%v level %d: %d valid frequent sets", side, level, len(sets))
		if prev != nil {
			prev(level, sets)
		}
	}
}

func (q *CFQ) normalize() error {
	if q.DB == nil {
		return fmt.Errorf("core: CFQ.DB is nil")
	}
	if q.MinSupportS < 1 {
		q.MinSupportS = 1
	}
	if q.MinSupportT < 1 {
		q.MinSupportT = 1
	}
	return nil
}

// Pair is one element of a CFQ answer: a frequent valid (S, T) pair.
type Pair struct {
	S, T mine.Counted
	// SI/TI are the positions of S and T in Result.ValidS() / ValidT().
	SI, TI int32
}

// Result is the outcome of evaluating a CFQ.
type Result struct {
	// LevelsS/LevelsT hold the frequent valid S-/T-sets per level.
	LevelsS, LevelsT [][]mine.Counted
	// Pairs is the answer (possibly truncated to CFQ.MaxPairs).
	Pairs []Pair
	// PairCount is the true number of valid pairs.
	PairCount int64
	// Stats accumulates the ccc cost counters across all phases.
	Stats mine.Stats
	// Plan describes what the optimizer decided (nil for baselines).
	Plan *Plan
}

// ValidS flattens the S-side levels.
func (r *Result) ValidS() []mine.Counted { return flatten(r.LevelsS) }

// ValidT flattens the T-side levels.
func (r *Result) ValidT() []mine.Counted { return flatten(r.LevelsT) }

func flatten(levels [][]mine.Counted) []mine.Counted {
	var out []mine.Counted
	for _, lv := range levels {
		out = append(out, lv...)
	}
	return out
}

// Plan records the optimizer's decisions for a query (Figure 7's boxes).
type Plan struct {
	Strategy Strategy
	// OneVarS/OneVarT describe each 1-var constraint's classification and
	// how it will be pushed.
	OneVarS, OneVarT []string
	// QuasiSuccinct and NonQuasiSuccinct partition the 2-var constraints.
	QuasiSuccinct    []twovar.Constraint2
	NonQuasiSuccinct []twovar.Constraint2
	// ReducedS/ReducedT are the 1-var conditions obtained by reduction
	// (including induced weaker constraints), rendered for explanation.
	ReducedS, ReducedT []string
	// ReducedFrom maps each reduced condition's rendering to the 2-var
	// constraint it was derived from (EXPLAIN ANALYZE provenance).
	ReducedFrom map[string]string
	// DynamicBounds lists the iterative (Jmax) pruning hooks, rendered with
	// twovar.DynamicBound.Label so they match the "<side>:jmax:<label>"
	// pruning-site keys.
	DynamicBounds []string
	// Bounds records each dynamic bound's provenance and (after a run) its
	// per-iteration trajectory, parallel to DynamicBounds.
	Bounds []BoundDetail
}

// BoundDetail is one dynamic bound's EXPLAIN ANALYZE record.
type BoundDetail struct {
	// Label is the bound's stable rendering (twovar.DynamicBound.Label).
	Label string
	// PruneSide names the variable the bound prunes.
	PruneSide string
	// Origin is the 2-var constraint the bound was induced from.
	Origin string
	// Trajectory renders the bound's per-iteration tightening.
	Trajectory []string
}

// noteReduced records a reduced condition's origin.
func (p *Plan) noteReduced(cond string, origin string) {
	if p.ReducedFrom == nil {
		p.ReducedFrom = map[string]string{}
	}
	if _, ok := p.ReducedFrom[cond]; !ok {
		p.ReducedFrom[cond] = origin
	}
}

// Describe renders the plan as a human-readable explanation.
func (p *Plan) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "strategy: %v\n", p.Strategy)
	for _, s := range p.OneVarS {
		fmt.Fprintf(&b, "1-var on S: %s\n", s)
	}
	for _, s := range p.OneVarT {
		fmt.Fprintf(&b, "1-var on T: %s\n", s)
	}
	for _, c := range p.QuasiSuccinct {
		fmt.Fprintf(&b, "quasi-succinct: %v\n", c)
	}
	for _, c := range p.NonQuasiSuccinct {
		fmt.Fprintf(&b, "non-quasi-succinct (induced + iterative): %v\n", c)
	}
	for _, s := range p.ReducedS {
		fmt.Fprintf(&b, "  S-side condition: %s\n", s)
	}
	for _, s := range p.ReducedT {
		fmt.Fprintf(&b, "  T-side condition: %s\n", s)
	}
	for _, s := range p.DynamicBounds {
		fmt.Fprintf(&b, "  dynamic bound: %s\n", s)
	}
	return b.String()
}

// describeClass renders a 1-var constraint's classification and pushdown.
func describeClass(c constraint.Constraint, dom itemset.Set) string {
	cl := c.Classify(dom)
	var tags []string
	if cl.Succinct != nil {
		tags = append(tags, "succinct: generate-only")
	} else if cl.Induced != nil {
		tags = append(tags, "induced succinct weakening + final check")
	}
	if cl.AntiMonotone {
		tags = append(tags, "anti-monotone: levelwise filter")
	}
	if cl.Monotone {
		tags = append(tags, "monotone")
	}
	if len(tags) == 0 {
		tags = append(tags, "unclassified: final check only")
	}
	return fmt.Sprintf("%v  [%s]", c, strings.Join(tags, ", "))
}

// Explain classifies the query's constraints without running it.
func Explain(q CFQ) (*Plan, error) {
	if err := q.normalize(); err != nil {
		return nil, err
	}
	domS, domT := q.DomainS, q.DomainT
	if domS == nil {
		domS = q.DB.ActiveItems()
	}
	if domT == nil {
		domT = q.DB.ActiveItems()
	}
	p := &Plan{Strategy: StrategyOptimized}
	for _, c := range q.ConstraintsS {
		p.OneVarS = append(p.OneVarS, describeClass(c, domS))
	}
	for _, c := range q.ConstraintsT {
		p.OneVarT = append(p.OneVarT, describeClass(c, domT))
	}
	for _, c2 := range q.Constraints2 {
		if c2.Classify(domS, domT).QuasiSuccinct {
			p.QuasiSuccinct = append(p.QuasiSuccinct, c2)
		} else {
			p.NonQuasiSuccinct = append(p.NonQuasiSuccinct, c2)
		}
	}
	return p, nil
}

// Run evaluates the CFQ with the selected strategy. All strategies return
// the same answer set; they differ in the work counted by Stats. ctx
// cancellation and q.Budget overruns abort the evaluation at the next
// mining checkpoint with a wrapped ctx.Err() or *mine.BudgetError.
func Run(ctx context.Context, q CFQ, strat Strategy) (*Result, error) {
	if err := q.normalize(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	switch strat {
	case StrategyAprioriPlus:
		return runBaseline(ctx, q, false)
	case StrategyCAPOnly:
		return runBaseline(ctx, q, true)
	case StrategyOptimized:
		return runOptimized(ctx, q, true)
	case StrategyOptimizedNoJmax:
		return runOptimized(ctx, q, false)
	case StrategyFM:
		return runFM(ctx, q)
	case StrategySequential:
		return runSequential(ctx, q)
	}
	return nil, fmt.Errorf("core: unknown strategy %d", int(strat))
}

func (q *CFQ) sideQuery(side twovar.Side) cap.Query {
	cq := cap.Query{
		DB:       q.DB,
		MaxLevel: q.MaxLevel,
		Workers:  q.Workers,
		Budget:   q.Budget,
		Lattice:  q.Lattice,
		Label:    side.String(),
	}
	if side == twovar.SideS {
		cq.MinSupport = q.MinSupportS
		cq.Domain = q.DomainS
		cq.Constraints = q.ConstraintsS
	} else {
		cq.MinSupport = q.MinSupportT
		cq.Domain = q.DomainT
		cq.Constraints = q.ConstraintsT
	}
	return cq
}

// runBaseline implements Apriori⁺ (pushOneVar = false) and CAP-only
// (pushOneVar = true): mine each side, then form pairs checking the 2-var
// constraints there.
func runBaseline(ctx context.Context, q CFQ, pushOneVar bool) (*Result, error) {
	runSide := cap.AprioriPlus
	if pushOneVar {
		runSide = cap.Run
	}
	sq := q.sideQuery(twovar.SideS)
	q.traceLevels(&sq, twovar.SideS)
	tq := q.sideQuery(twovar.SideT)
	q.traceLevels(&tq, twovar.SideT)
	sRes, err := runSide(ctx, sq)
	if err != nil {
		return nil, err
	}
	tRes, err := runSide(ctx, tq)
	if err != nil {
		return nil, err
	}
	res := &Result{LevelsS: sRes.Levels, LevelsT: tRes.Levels}
	res.Stats.Add(sRes.Stats)
	res.Stats.Add(tRes.Stats)
	if err := formPairsTraced(ctx, obs.FromContext(ctx), obs.PruningFromContext(ctx), q, res); err != nil {
		return res, err
	}
	return res, nil
}

// dynState tracks one evolving sum bound: the condition prunes d.PruneSide
// using the series observed from the opposite lattice.
type dynState struct {
	d       *twovar.DynamicBound
	series  *jmax.Series
	allowed bool // opposite side counts complete levels (no existential push)
}

func (ds *dynState) bound() float64 {
	if !ds.allowed {
		return math.Inf(1)
	}
	if ds.d.Kind == twovar.BoundCount {
		sb := ds.series.SizeBound()
		if sb >= jmax.Unbounded {
			return math.Inf(1)
		}
		return float64(sb)
	}
	return ds.series.Bound()
}

// runOptimized is the optimizer's strategy: reduce after level 1, re-plan
// both sides with the reduced constraints, dovetail the lattices tightening
// Jmax bounds, then form pairs.
func runOptimized(ctx context.Context, q CFQ, useJmax bool) (*Result, error) {
	plan, err := Explain(q)
	if err != nil {
		return nil, err
	}
	if !useJmax {
		plan.Strategy = StrategyOptimizedNoJmax
	}
	res := &Result{Plan: plan}
	tracer := obs.FromContext(ctx)
	prune := obs.PruningFromContext(ctx)

	// Phase 1: one counting iteration per side with 1-var pushdown only.
	// The phase span is structural (no delta): the runners' classify/level
	// spans nested under it carry the counter deltas.
	var p1 *obs.Span
	if tracer != nil {
		p1 = tracer.Start("phase1")
	}
	sq1 := q.sideQuery(twovar.SideS)
	sq1.MaxLevel = 1
	tq1 := q.sideQuery(twovar.SideT)
	tq1.MaxLevel = 1
	s1, err := cap.Prepare(ctx, sq1)
	if err != nil {
		p1.End(nil)
		return nil, err
	}
	t1, err := cap.Prepare(ctx, tq1)
	if err != nil {
		p1.End(nil)
		return nil, err
	}
	if _, _, err := s1.Step(); err != nil {
		p1.End(nil)
		return nil, err
	}
	if _, _, err := t1.Step(); err != nil {
		p1.End(nil)
		return nil, err
	}
	l1S, l1T := s1.FrequentItems(), t1.FrequentItems()
	res.Stats.Add(s1.Stats())
	res.Stats.Add(t1.Stats())
	p1.End(nil)

	var rsp *obs.Span
	if tracer != nil {
		rsp = tracer.Start("reduce")
	}

	// Reduce every 2-var constraint to 1-var conditions (Figures 2–4).
	sq := q.sideQuery(twovar.SideS)
	tq := q.sideQuery(twovar.SideT)
	// Copy the constraint slices before appending reductions: the caller's
	// CFQ must stay reusable.
	sq.Constraints = append([]constraint.Constraint(nil), sq.Constraints...)
	tq.Constraints = append([]constraint.Constraint(nil), tq.Constraints...)
	var dyns []*dynState
	for _, c2 := range q.Constraints2 {
		red := c2.Reduce(l1S, l1T)
		sq.Constraints = append(sq.Constraints, red.C1...)
		tq.Constraints = append(tq.Constraints, red.C2...)
		origin := fmt.Sprintf("%v", c2)
		for _, c := range red.C1 {
			plan.ReducedS = append(plan.ReducedS, c.String())
			plan.noteReduced(c.String(), origin)
		}
		for _, c := range red.C2 {
			plan.ReducedT = append(plan.ReducedT, c.String())
			plan.noteReduced(c.String(), origin)
		}
		if useJmax {
			for _, d := range red.Dynamic {
				dyns = append(dyns, &dynState{d: d, series: jmax.NewSeries()})
				plan.DynamicBounds = append(plan.DynamicBounds, d.Label())
				plan.Bounds = append(plan.Bounds, BoundDetail{
					Label: d.Label(), PruneSide: d.PruneSide.String(), Origin: origin,
				})
			}
		}
	}

	rsp.SetAttrs(obs.Int("l1_s", l1S.Len()), obs.Int("l1_t", l1T.Len()),
		obs.Int("conditions_s", len(plan.ReducedS)), obs.Int("conditions_t", len(plan.ReducedT)),
		obs.Int("dynamic_bounds", len(dyns)))
	rsp.End(nil)

	// Phase 2: re-plan both sides with the reduced constraints; level 1 is
	// preset from phase 1, so nothing is re-counted.
	sq.PresetL1 = s1.FrequentItemCounts()
	tq.PresetL1 = t1.FrequentItemCounts()
	q.trace("reduction: |L1(S)| = %d, |L1(T)| = %d; %d S-conditions, %d T-conditions, %d dynamic bounds",
		l1S.Len(), l1T.Len(), len(plan.ReducedS), len(plan.ReducedT), len(dyns))
	q.traceLevels(&sq, twovar.SideS)
	q.traceLevels(&tq, twovar.SideT)
	var dynChecks int64
	sq.ExtraFilter = dynFilter(dyns, twovar.SideS, &dynChecks, prune)
	tq.ExtraFilter = dynFilter(dyns, twovar.SideT, &dynChecks, prune)
	sRun, err := cap.Prepare(ctx, sq)
	if err != nil {
		return nil, err
	}
	tRun, err := cap.Prepare(ctx, tq)
	if err != nil {
		return nil, err
	}
	// Jmax summaries are sound only over complete levels: a side whose
	// counting omits sets (existential pushdown) cannot feed them.
	for _, ds := range dyns {
		if ds.d.PruneSide == twovar.SideS {
			ds.allowed = !tRun.HasExistential()
		} else {
			ds.allowed = !sRun.HasExistential()
		}
	}

	// Dovetail: one S level, then one T level, tightening bounds as each
	// side's levels complete (Section 5.2). An abort on either side stops
	// the whole evaluation — the budget is shared, so continuing the other
	// lattice would only dig the overrun deeper.
	iter := 0
	for !sRun.Done() || !tRun.Done() {
		// One structural span per dovetail round: its children are the two
		// sides' level/finalcheck spans, so the report tree names every Jmax
		// iteration.
		iter++
		var isp *obs.Span
		if tracer != nil {
			isp = tracer.Start(fmt.Sprintf("jmax-iter-%d", iter))
		}
		// Past the cutoff the bounds freeze: steps still run (and still
		// benefit from the frozen bounds via dynFilter), but the per-level
		// summarization stops.
		observe := q.JmaxCutoff <= 0 || iter <= q.JmaxCutoff
		if !sRun.Done() {
			if _, _, err := sRun.Step(); err != nil {
				isp.End(nil)
				return nil, err
			}
			if observe {
				observeLevel(dyns, twovar.SideT, sRun)
			}
		}
		if !tRun.Done() {
			if _, _, err := tRun.Step(); err != nil {
				isp.End(nil)
				return nil, err
			}
			if observe {
				observeLevel(dyns, twovar.SideS, tRun)
			}
		}
		bounded := 0
		for i, ds := range dyns {
			if b := ds.bound(); !math.IsInf(b, 1) {
				bounded++
				q.trace("dynamic bound on %v: %v(%s) %v %.4g", ds.d.PruneSide, ds.d.Agg, ds.d.AttrName, ds.d.Op, b)
			}
			if isp != nil && ds.allowed {
				isp.SetAttrs(ds.series.Attrs(fmt.Sprintf("%s%d_", ds.d.PruneSide, i))...)
			}
		}
		isp.SetAttrs(obs.Int("active_bounds", bounded))
		isp.End(nil)
	}
	for _, ds := range dyns {
		if ds.allowed {
			ds.series.Finish()
		}
	}
	recordTrajectories(plan, dyns)

	sResult, tResult := sRun.Result(), tRun.Result()
	res.Stats.Add(sResult.Stats)
	res.Stats.Add(tResult.Stats)

	// The finalize span opens after the Stats.Add copies above (copies are
	// not work and must not land in any delta) and attributes the dynamic
	// checks folded in here plus the final-bound re-filtering.
	var fsp *obs.Span
	if tracer != nil {
		fsp = tracer.Start("finalize").WithStats(res.Stats.Counters())
	}
	res.Stats.SetConstraintChecks += dynChecks

	// Apply the final (tightest) bounds to the reported sets: sound for
	// answer formation, and it also covers the non-anti-monotone dynamic
	// conditions (avg series) that could not prune candidates.
	res.LevelsS = applyFinalDynamic(dyns, twovar.SideS, sResult.Levels, &res.Stats, prune)
	res.LevelsT = applyFinalDynamic(dyns, twovar.SideT, tResult.Levels, &res.Stats, prune)
	if fsp != nil {
		fsp.End(res.Stats.Counters())
	}

	if err := formPairsTraced(ctx, tracer, prune, q, res); err != nil {
		return res, err
	}
	return res, nil
}

// formPairsTraced wraps pair formation in a delta span attributing the
// PairChecks cost. The span must open after every Stats.Add fold into
// res.Stats, so its delta is exactly the pair-formation work.
func formPairsTraced(ctx context.Context, tracer *obs.Tracer, prune *obs.PruneSet, q CFQ, res *Result) error {
	var sp *obs.Span
	if tracer != nil {
		sp = tracer.Start("pairs").WithStats(res.Stats.Counters())
	}
	err := formPairs(ctx, q, res, prune)
	if sp != nil {
		sp.SetAttrs(obs.Int64("pair_count", res.PairCount))
		sp.End(res.Stats.Counters())
	}
	return err
}

// dynFilter builds the candidate filter enforcing the anti-monotone
// dynamic bounds that prune the given side. As a charging closure (see
// mine.Config.RequiredSite) it attributes each rejection to the bound's
// "<side>:jmax:<bound>" site; the engine counts the rejection itself.
func dynFilter(dyns []*dynState, side twovar.Side, checks *int64, prune *obs.PruneSet) func(int, itemset.Set) bool {
	var active []*dynState
	for _, ds := range dyns {
		if ds.d.PruneSide == side && ds.d.AntiMonotonePrunable() {
			active = append(active, ds)
		}
	}
	if len(active) == 0 {
		return nil
	}
	return func(_ int, s itemset.Set) bool {
		for _, ds := range active {
			b := ds.bound()
			if math.IsInf(b, 1) {
				continue
			}
			*checks++
			if !ds.d.Condition(b).Satisfies(s) {
				prune.Charge(side.String()+":jmax:"+ds.d.Label(), 1)
				return false
			}
		}
		return true
	}
}

// recordTrajectories fills each plan bound's per-iteration trajectory from
// its observed Jmax series (EXPLAIN ANALYZE's bound evolution).
func recordTrajectories(plan *Plan, dyns []*dynState) {
	for _, ds := range dyns {
		hist := ds.series.History()
		if len(hist) == 0 {
			continue
		}
		lines := make([]string, 0, len(hist))
		for _, st := range hist {
			switch {
			case ds.d.Kind == twovar.BoundCount:
				if st.SizeBound >= jmax.Unbounded {
					lines = append(lines, fmt.Sprintf("k=%d: size unbounded", st.K))
				} else {
					lines = append(lines, fmt.Sprintf("k=%d: size<=%d", st.K, st.SizeBound))
				}
			case math.IsInf(st.Bound, 0):
				lines = append(lines, fmt.Sprintf("k=%d: unbounded", st.K))
			default:
				lines = append(lines, fmt.Sprintf("k=%d: <=%.4g", st.K, st.Bound))
			}
		}
		for i := range plan.Bounds {
			if plan.Bounds[i].Label == ds.d.Label() && plan.Bounds[i].Trajectory == nil {
				plan.Bounds[i].Trajectory = lines
				break
			}
		}
	}
}

// observeLevel feeds a just-completed level of `from` into the series of
// every dynamic bound pruning `pruneSide` (whose sums are tracked on the
// *other* side, i.e. the side that just stepped).
func observeLevel(dyns []*dynState, pruneSide twovar.Side, from *cap.Runner) {
	level := from.Level()
	var sets []itemset.Set
	for _, ds := range dyns {
		if ds.d.PruneSide != pruneSide || !ds.allowed {
			continue
		}
		if sets == nil {
			for _, c := range from.LastFrequent() {
				sets = append(sets, c.Set)
			}
		}
		sum, err := jmax.Summarize(sets, level, ds.d.OtherAttr)
		if err != nil {
			continue // malformed level: leave the bound loose (sound)
		}
		ds.series.Observe(sum)
	}
}

// applyFinalDynamic re-filters the reported sets with each dynamic bound's
// final value.
func applyFinalDynamic(dyns []*dynState, side twovar.Side, levels [][]mine.Counted, stats *mine.Stats, prune *obs.PruneSet) [][]mine.Counted {
	var checks []cap.Check
	for _, ds := range dyns {
		if ds.d.PruneSide != side {
			continue
		}
		if b := ds.bound(); !math.IsInf(b, 1) {
			checks = append(checks, cap.Check{Cond: ds.d.Condition(b), Site: side.String() + ":final-filter:" + ds.d.Label()})
		}
	}
	if len(checks) == 0 {
		return levels
	}
	out := make([][]mine.Counted, len(levels))
	for i, lv := range levels {
		out[i] = cap.Filter(lv, checks, stats, prune)
	}
	return cap.TrimLevels(out)
}

// runSequential is the non-dovetailed alternative of Section 5.2: the T
// lattice is mined to completion first, each dynamic bound is set to the
// *exact* maximum over the finished opposite lattice, and only then does
// the S lattice run (and symmetrically for bounds pruning T, which are
// resolved against the finished S side afterwards). Pruning is maximal;
// the cost is that the two lattices cannot share database scans.
func runSequential(ctx context.Context, q CFQ) (*Result, error) {
	plan, err := Explain(q)
	if err != nil {
		return nil, err
	}
	plan.Strategy = StrategySequential
	res := &Result{Plan: plan}
	tracer := obs.FromContext(ctx)
	prune := obs.PruningFromContext(ctx)

	// Phase 1 + reduction, as in runOptimized.
	var p1 *obs.Span
	if tracer != nil {
		p1 = tracer.Start("phase1")
	}
	sq1 := q.sideQuery(twovar.SideS)
	sq1.MaxLevel = 1
	tq1 := q.sideQuery(twovar.SideT)
	tq1.MaxLevel = 1
	s1, err := cap.Prepare(ctx, sq1)
	if err != nil {
		p1.End(nil)
		return nil, err
	}
	t1, err := cap.Prepare(ctx, tq1)
	if err != nil {
		p1.End(nil)
		return nil, err
	}
	if _, _, err := s1.Step(); err != nil {
		p1.End(nil)
		return nil, err
	}
	if _, _, err := t1.Step(); err != nil {
		p1.End(nil)
		return nil, err
	}
	res.Stats.Add(s1.Stats())
	res.Stats.Add(t1.Stats())
	p1.End(nil)

	sq := q.sideQuery(twovar.SideS)
	tq := q.sideQuery(twovar.SideT)
	sq.Constraints = append([]constraint.Constraint(nil), sq.Constraints...)
	tq.Constraints = append([]constraint.Constraint(nil), tq.Constraints...)
	var dyns []*dynState
	for _, c2 := range q.Constraints2 {
		red := c2.Reduce(s1.FrequentItems(), t1.FrequentItems())
		sq.Constraints = append(sq.Constraints, red.C1...)
		tq.Constraints = append(tq.Constraints, red.C2...)
		origin := fmt.Sprintf("%v", c2)
		for _, c := range red.C1 {
			plan.ReducedS = append(plan.ReducedS, c.String())
			plan.noteReduced(c.String(), origin)
		}
		for _, c := range red.C2 {
			plan.ReducedT = append(plan.ReducedT, c.String())
			plan.noteReduced(c.String(), origin)
		}
		for _, d := range red.Dynamic {
			dyns = append(dyns, &dynState{d: d, series: jmax.NewSeries(), allowed: true})
			plan.DynamicBounds = append(plan.DynamicBounds, d.Label())
			plan.Bounds = append(plan.Bounds, BoundDetail{
				Label: d.Label(), PruneSide: d.PruneSide.String(), Origin: origin,
			})
		}
	}
	sq.PresetL1 = s1.FrequentItemCounts()
	tq.PresetL1 = t1.FrequentItemCounts()

	// Mine T to completion; the exact maxima over its counted frequent
	// sets become the bounds for S-pruning dynamics. The mine-T/mine-S
	// spans are structural: the runners' own spans carry the deltas.
	var msp *obs.Span
	if tracer != nil {
		msp = tracer.Start("mine-T")
	}
	tRun, err := cap.Prepare(ctx, tq)
	if err != nil {
		msp.End(nil)
		return nil, err
	}
	sBounds := map[*dynState]float64{}
	for _, ds := range dyns {
		if ds.d.PruneSide == twovar.SideS {
			sBounds[ds] = math.Inf(-1)
		}
	}
	for !tRun.Done() {
		if _, _, err := tRun.Step(); err != nil {
			msp.End(nil)
			return nil, err
		}
		for _, c := range tRun.LastFrequent() {
			for ds := range sBounds {
				v := float64(c.Set.Len())
				if ds.d.Kind == twovar.BoundSum {
					v, _ = ds.d.OtherAttr.Eval(attr.Sum, c.Set)
				}
				if v > sBounds[ds] {
					sBounds[ds] = v
				}
			}
		}
	}
	msp.End(nil)
	var dynChecks int64
	type seqCond struct {
		cond constraint.Constraint
		site string
	}
	var sConds []seqCond
	for ds, b := range sBounds {
		if !math.IsInf(b, -1) {
			if ds.d.AntiMonotonePrunable() {
				sConds = append(sConds, seqCond{ds.d.Condition(b), "S:jmax:" + ds.d.Label()})
			}
		} else {
			// No frequent T-set at all: nothing can pair; an unsatisfiable
			// filter is sound.
			sConds = append(sConds, seqCond{constraint.Card(constraint.LE, -1), "S:jmax:no-frequent-T"})
		}
	}
	if len(sConds) > 0 {
		sq.ExtraFilter = func(_ int, s itemset.Set) bool {
			for _, c := range sConds {
				dynChecks++
				if !c.cond.Satisfies(s) {
					prune.Charge(c.site, 1)
					return false
				}
			}
			return true
		}
	}
	var ssp *obs.Span
	if tracer != nil {
		ssp = tracer.Start("mine-S")
	}
	sRun, err := cap.Prepare(ctx, sq)
	if err != nil {
		ssp.End(nil)
		return nil, err
	}
	for !sRun.Done() {
		if _, _, err := sRun.Step(); err != nil {
			ssp.End(nil)
			return nil, err
		}
		observeLevel(dyns, twovar.SideT, sRun)
	}
	ssp.End(nil)
	for _, ds := range dyns {
		if ds.d.PruneSide == twovar.SideT {
			ds.series.Finish()
		}
	}
	sResult, tResult := sRun.Result(), tRun.Result()
	res.Stats.Add(sResult.Stats)
	res.Stats.Add(tResult.Stats)
	var fsp *obs.Span
	if tracer != nil {
		fsp = tracer.Start("finalize").WithStats(res.Stats.Counters())
	}
	res.Stats.SetConstraintChecks += dynChecks
	res.LevelsS = sResult.Levels
	// T-pruning dynamics could not run during T's mining (S was not mined
	// yet); apply their final bounds now.
	res.LevelsT = applyFinalDynamic(dyns, twovar.SideT, tResult.Levels, &res.Stats, prune)
	// And the non-anti-monotone S dynamics (avg forms) as report filters:
	// seed their series with the exact bound so applyFinalDynamic sees it.
	for ds, b := range sBounds {
		if !ds.d.AntiMonotonePrunable() && !math.IsInf(b, -1) {
			ds.series.Observe(&jmax.Summary{K: int(b), Jmax: 0, V: b, MaxExact: b})
		}
	}
	res.LevelsS = applyFinalDynamic(dyns, twovar.SideS, res.LevelsS, &res.Stats, prune)
	if fsp != nil {
		fsp.End(res.Stats.Counters())
	}
	recordTrajectories(plan, dyns)

	if err := formPairsTraced(ctx, tracer, prune, q, res); err != nil {
		return res, err
	}
	return res, nil
}

// runFM is the full-materialization counterexample: constraint-check every
// subset of each domain up front (2^N checks), then count the valid ones in
// ascending cardinality. It exists to make the ccc argument measurable and
// is guarded to tiny domains.
func runFM(ctx context.Context, q CFQ) (*Result, error) {
	const maxFMItems = 16
	res := &Result{}
	guard := mine.NewGuard(ctx, q.Budget, &res.Stats)
	tracer := obs.FromContext(ctx)
	prune := obs.PruningFromContext(ctx)
	span := func(name string) func() {
		if tracer == nil {
			return func() {}
		}
		sp := tracer.Start(name).WithStats(res.Stats.Counters())
		return func() { sp.End(res.Stats.Counters()) }
	}
	run := func(label string, domain itemset.Set, minSup int, cons []constraint.Constraint) ([][]mine.Counted, error) {
		if domain == nil {
			domain = q.DB.ActiveItems()
		}
		if domain.Len() > maxFMItems {
			return nil, fmt.Errorf("core: FM strategy on %d items (max %d)", domain.Len(), maxFMItems)
		}
		// Materialize the valid subsets (checking constraints on all 2^N).
		var valid []itemset.Set
		domain.ForEachSubset(func(s itemset.Set) bool {
			ok := true
			for _, c := range cons {
				res.Stats.SetConstraintChecks++
				if !c.Satisfies(s) {
					ok = false
					// Every enumerated subset is a materialized candidate;
					// a constraint rejection here is FM's pruning.
					res.Stats.CandidatesPruned++
					prune.Charge(label+":materialize:"+c.String(), 1)
					break
				}
			}
			if ok {
				valid = append(valid, s.Clone())
			}
			return true
		})
		// Count in ascending cardinality; a set is counted only when its
		// valid proper subsets are all known frequent.
		frequent := map[string]bool{}
		var levels [][]mine.Counted
		for _, s := range valid { // ForEachSubset yields ascending sizes
			countable := true
			s.ForEachSubset(func(sub itemset.Set) bool {
				if sub.Len() == s.Len() {
					return true
				}
				// Only valid subsets were materialized and counted.
				isValid := true
				for _, c := range cons {
					if !c.Satisfies(sub) {
						isValid = false
						break
					}
				}
				if isValid && !frequent[sub.Key()] {
					countable = false
					return false
				}
				return true
			})
			if !countable {
				continue
			}
			if err := guard.Check("fm: counting"); err != nil {
				return nil, err
			}
			res.Stats.CandidatesCounted++
			sup := q.DB.Support(s)
			res.Stats.DBScans++
			if sup < minSup {
				res.Stats.CandidatesPruned++
				prune.Charge(label+":frequency", 1)
				continue
			}
			res.Stats.FrequentSets++
			res.Stats.ValidSets++
			frequent[s.Key()] = true
			for len(levels) < s.Len() {
				levels = append(levels, nil)
			}
			levels[s.Len()-1] = append(levels[s.Len()-1], mine.Counted{Set: s, Support: sup})
		}
		return cap.TrimLevels(levels), nil
	}
	var err error
	endS := span("fm-S")
	res.LevelsS, err = run("fm-S", q.DomainS, q.MinSupportS, q.ConstraintsS)
	endS()
	if err != nil {
		return nil, err
	}
	endT := span("fm-T")
	res.LevelsT, err = run("fm-T", q.DomainT, q.MinSupportT, q.ConstraintsT)
	endT()
	if err != nil {
		return nil, err
	}
	if err := formPairsTraced(ctx, tracer, prune, q, res); err != nil {
		return res, err
	}
	return res, nil
}
