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
	"errors"
	"fmt"
	"math"
	"slices"

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
	// StrategySequential is the optimizer with the other mining order
	// Section 5.2 discusses (see tThenS): T to completion, then S under the
	// *exact* global bounds (e.g. max{sum(T.B) | freq(T)}) — compare its
	// DBScans/pruning trade-off against StrategyOptimized.
	StrategySequential
)

// strategyRow is what a strategy is. Run, String and EXPLAIN all read the
// row, so a strategy is described once and the engine has no per-strategy
// code beyond the schedule a row names.
type strategyRow struct {
	name string
	// oneVarAt, when non-empty, says the 1-var constraints are tested as
	// written at that stage (EXPLAIN's rendering); empty means CAP
	// simplifies them and pushes them into the mining.
	oneVarAt string
	// reduce turns on Figure 7's 2-var stages: phase 1, the reduction to
	// 1-var conditions over L1, and the final dynamic-bound filter.
	reduce bool
	// schedule mines the two lattices: side by side with the row's side
	// miner, or in one of Section 5.2's two orders of the reduced ones.
	schedule schedule
	// dynamicAt, when non-empty, keeps the reduction's dynamic bounds and
	// is EXPLAIN's description of how the schedule resolves them.
	dynamicAt string
}

// A schedule mines both lattices and returns their results, indexed by Side.
type schedule func(context.Context, *mining) ([2]*cap.Result, error)

// strategies is the strategy table, indexed by Strategy.
var strategies = [...]strategyRow{
	StrategyOptimized: {name: "optimized", reduce: true, schedule: dovetail,
		dynamicAt: "iterative Jmax bounds (dovetailed counting)"},
	StrategyOptimizedNoJmax: {name: "optimized-nojmax", reduce: true, schedule: dovetail},
	StrategyCAPOnly:         {name: "cap-1var", schedule: sideBySide(cap.Run)},
	StrategyAprioriPlus: {name: "apriori+", oneVarAt: "post-mining filter",
		schedule: sideBySide(cap.AprioriPlus)},
	StrategyFM: {name: "fm", oneVarAt: "materialization (subset enumeration)",
		schedule: sideBySide(fmSide)},
	StrategySequential: {name: "sequential", reduce: true, schedule: tThenS,
		dynamicAt: "exact bounds from the completed opposite lattice"},
}

func (s Strategy) row() (*strategyRow, error) {
	if s < 0 || int(s) >= len(strategies) {
		return nil, fmt.Errorf("core: unknown strategy %d", int(s))
	}
	return &strategies[s], nil
}

// String names the strategy.
func (s Strategy) String() string {
	if row, err := s.row(); err == nil {
		return row.name
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// Strategies lists every strategy in enum order. Callers that enumerate or
// name strategies (bench harnesses, the planner) go through this and
// ParseStrategy so strategy selection stays centralized here and in
// internal/plan.
func Strategies() []Strategy {
	out := make([]Strategy, len(strategies))
	for i := range out {
		out[i] = Strategy(i)
	}
	return out
}

// ParseStrategy maps a strategy's String() name back to the Strategy.
func ParseStrategy(name string) (Strategy, error) {
	for i := range strategies {
		if strategies[i].name == name {
			return Strategy(i), nil
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
	// Lattice, when non-nil, supplies StrategyAprioriPlus's unconstrained
	// lattices in place of mining: each side is cap.FilterLattice over the
	// one it returns, and pair formation reads the lattices' key orders (a
	// session plugs its cache in here). Constraint-pushing strategies
	// ignore it.
	Lattice cap.LatticeSource
}

// domains returns the variables' item domains (nil = all active items).
// ActiveItems hands out a copy, so it is fetched at most once.
func (q *CFQ) domains() (domS, domT itemset.Set) {
	domS, domT = q.DomainS, q.DomainT
	if domS == nil || domT == nil {
		active := q.DB.ActiveItems()
		if domS == nil {
			domS = active
		}
		if domT == nil {
			domT = active
		}
	}
	return domS, domT
}

func (q *CFQ) normalize() error {
	if q.DB == nil {
		return fmt.Errorf("core: CFQ.DB is nil")
	}
	q.MinSupportS, q.MinSupportT = max(q.MinSupportS, 1), max(q.MinSupportT, 1)
	return nil
}

// Pair is one element of a CFQ answer: a frequent valid (S, T) pair, held
// as the positions of S and T in Result.ValidS() / ValidT(). The sets are
// not copied into the pair; every consumer reads them from those lists.
type Pair struct {
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
	// Plan is what the reduce stage derived (nil for strategies without
	// one).
	Plan *Plan

	// lattices holds, by Side, the cached lattice a side was filtered from
	// (CFQ.Lattice) and where its valid sets sit in it; zero for a mined
	// side.
	lattices [2]latticeSide
}

// latticeSide is a side's valid sets as positions in the cached lattice it
// was filtered from, in the order the levels flatten them.
type latticeSide struct {
	lat *cap.Lattice
	pos []int32
}

// columns returns the lattice's columns of attribute a when they hold its
// aggregate agg (cap.Indexable), nil otherwise or for a mined side.
func (ls latticeSide) columns(agg attr.Aggregate, a attr.Numeric) *cap.Columns {
	if ls.lat == nil || !cap.Indexable(agg, a) {
		return nil
	}
	return ls.lat.Columns(a)
}

// ValidS flattens the S-side levels.
func (r *Result) ValidS() []mine.Counted { return slices.Concat(r.LevelsS...) }

// ValidT flattens the T-side levels.
func (r *Result) ValidT() []mine.Counted { return slices.Concat(r.LevelsT...) }

// Plan records what the reduce stage derived for a run — the facts EXPLAIN
// ANALYZE joins onto the plan report (see AnalyzeExplain).
type Plan struct {
	// ReducedS/ReducedT are the 1-var conditions obtained by reduction
	// (including induced weaker constraints), rendered for explanation.
	ReducedS, ReducedT []string
	// ReducedFrom maps each reduced condition's rendering to the 2-var
	// constraint it was derived from (EXPLAIN ANALYZE provenance).
	ReducedFrom map[string]string
	// Bounds records each dynamic (Jmax) pruning hook as EXPLAIN ANALYZE
	// reports it: label (matching the "<side>:jmax:<label>" pruning-site
	// keys), provenance and, after a run, per-level trajectory.
	Bounds []obs.BoundExplain
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

// BoundsT reports whether some 2-var constraint of q registers a dynamic
// bound that prunes T (twovar.BoundsT) — what the planner's rule reads
// besides whether q has a 2-var constraint at all.
func BoundsT(q CFQ) bool {
	domS := func() itemset.Set { s, _ := q.domains(); return s }
	for _, c2 := range q.Constraints2 {
		if twovar.BoundsT(c2, domS) {
			return true
		}
	}
	return false
}

func (q *CFQ) sideQuery(side twovar.Side) cap.Query {
	cq := cap.Query{
		DB:       q.DB,
		MaxLevel: q.MaxLevel,
		Workers:  q.Workers,
		Budget:   q.Budget,
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

// bothSides is the order every S-then-T loop walks the variables in.
var bothSides = [2]twovar.Side{twovar.SideS, twovar.SideT}

// mining is what a schedule works on: the two side queries, indexed by Side
// (re-planned by the reduce stage when the strategy has one), and the
// dynamic bounds that couple them.
type mining struct {
	q      *CFQ
	tracer *obs.Tracer
	prune  *obs.PruneSet
	cq     [2]cap.Query
	dyns   []*dynState
	// checks counts the dynamic-bound tests the miners made; finalize folds
	// it into Stats.SetConstraintChecks.
	checks int64
	// runners are the step-wise miners the run started (phase 1's and the
	// reduced schedules'), finished the counters of the side-by-side miners
	// that completed; a budget trip totals both (see tripped).
	runners  []*cap.Runner
	finished mine.Stats
}

// Run evaluates the CFQ with the selected strategy. All strategies return
// the same answer set; they differ in the work counted by Stats. ctx
// cancellation and q.Budget overruns abort the evaluation at the next
// mining checkpoint with a wrapped ctx.Err() or *mine.BudgetError, whose
// Stats are the whole run's counters up to the abort.
//
// It is the one evaluation pipeline (Figure 7): phase 1, reduce, mine,
// finalize, pairs. Every stage is written once and emits the same span for
// every strategy; the strategy row decides only whether the 2-var stages
// run and which schedule the mining follows.
func Run(ctx context.Context, q CFQ, strat Strategy) (*Result, error) {
	if err := q.normalize(); err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	row, err := strat.row()
	if err != nil {
		return nil, err
	}
	res := &Result{}
	m := &mining{q: &q, tracer: obs.FromContext(ctx), prune: obs.PruningFromContext(ctx)}
	for _, side := range bothSides {
		m.cq[side] = q.sideQuery(side)
	}
	if row.reduce {
		res.Plan = &Plan{}
		l1, err := m.phase1(ctx)
		if err != nil {
			return nil, m.tripped(err)
		}
		for _, run := range l1 {
			res.Stats.Add(run.Stats())
		}
		m.reduce(res.Plan, l1, row.dynamicAt != "")
	}

	schedule := row.schedule
	if q.Lattice != nil && strat == StrategyAprioriPlus {
		schedule = sideBySide(func(ctx context.Context, cq cap.Query) (*cap.Result, error) {
			return cap.FilterLattice(ctx, cq, q.Lattice)
		})
	}
	mined, err := schedule(ctx, m)
	if err != nil {
		return nil, m.tripped(err)
	}
	for side, r := range mined {
		res.Stats.Add(r.Stats)
		res.lattices[side] = latticeSide{r.Lattice, r.Positions}
	}
	res.LevelsS, res.LevelsT = mined[twovar.SideS].Levels, mined[twovar.SideT].Levels
	if row.reduce {
		m.finalize(res)
	}

	// The pairs span opens after every Stats.Add fold into res.Stats, so
	// its delta is exactly the pair-formation work (PairChecks).
	var sp *obs.Span
	if m.tracer != nil {
		sp = m.tracer.Start("pairs").WithStats(res.Stats.Counters())
	}
	err = formPairs(ctx, q, res, m.prune)
	if sp != nil {
		sp.SetAttrs(obs.Int64("pair_count", res.PairCount))
		sp.End(res.Stats.Counters())
	}
	return res, err
}

// phase1 is one counting iteration per side with 1-var pushdown only. The
// phase span is structural (no delta): the runners' classify/level spans
// nested under it carry the counter deltas.
func (m *mining) phase1(ctx context.Context) (l1 [2]*cap.Runner, err error) {
	var sp *obs.Span
	if m.tracer != nil {
		sp = m.tracer.Start("phase1")
	}
	defer sp.End(nil)
	for side, cq := range m.cq {
		cq.MaxLevel = 1
		if l1[side], err = cap.Prepare(ctx, cq); err != nil {
			return l1, err
		}
		m.runners = append(m.runners, l1[side])
	}
	for _, run := range l1 {
		if _, _, err = run.Step(); err != nil {
			return l1, err
		}
	}
	return l1, nil
}

// reduce rewrites both side queries with the 1-var conditions each 2-var
// constraint reduces to over the phase-1 L1s (Figures 2–4), keeps the
// reduction's dynamic bounds when the strategy resolves them, and presets
// level 1 from phase 1 so the re-planned runs re-count nothing.
func (m *mining) reduce(plan *Plan, l1 [2]*cap.Runner, dynamic bool) {
	var sp *obs.Span
	if m.tracer != nil {
		sp = m.tracer.Start("reduce")
	}
	l1S, l1T := l1[twovar.SideS].FrequentItems(), l1[twovar.SideT].FrequentItems()
	for _, c2 := range m.q.Constraints2 {
		red := c2.Reduce(l1S, l1T)
		origin := fmt.Sprintf("%v", c2)
		push := func(side twovar.Side, rendered *[]string, conds []constraint.Constraint) {
			// A full slice expression: the append must copy, not write
			// into the caller's CFQ, which stays reusable.
			cons := m.cq[side].Constraints
			m.cq[side].Constraints = append(cons[:len(cons):len(cons)], conds...)
			for _, c := range conds {
				*rendered = append(*rendered, c.String())
				plan.noteReduced(c.String(), origin)
			}
		}
		push(twovar.SideS, &plan.ReducedS, red.C1)
		push(twovar.SideT, &plan.ReducedT, red.C2)
		if !dynamic {
			continue
		}
		for _, d := range red.Dynamic {
			m.dyns = append(m.dyns, &dynState{d: d, series: jmax.NewSeries(), held: math.Inf(1)})
			plan.Bounds = append(plan.Bounds, obs.BoundExplain{
				Bound: d.Label(), PruneSide: d.PruneSide.String(), Origin: origin,
			})
		}
	}
	sp.SetAttrs(obs.Int("l1_s", l1S.Len()), obs.Int("l1_t", l1T.Len()),
		obs.Int("conditions_s", len(plan.ReducedS)), obs.Int("conditions_t", len(plan.ReducedT)),
		obs.Int("dynamic_bounds", len(m.dyns)))
	sp.End(nil)
	for side, run := range l1 {
		m.cq[side].PresetL1 = run.FrequentItemCounts()
	}
}

// finalize applies the final (tightest) bounds to the reported sets: sound
// for answer formation, and the only enforcement of the dynamic conditions
// that could not prune candidates (avg forms, and bounds on a side mined
// before their lattice existed). Its span opens after every Stats.Add copy
// (copies are not work and must not land in any delta) and attributes the
// filters' dynamic checks folded in here plus the re-filtering.
func (m *mining) finalize(res *Result) {
	var sp *obs.Span
	if m.tracer != nil {
		sp = m.tracer.Start("finalize").WithStats(res.Stats.Counters())
	}
	res.Stats.SetConstraintChecks += m.checks
	res.LevelsS = applyFinalDynamic(m.dyns, twovar.SideS, res.LevelsS, &res.Stats, m.prune)
	res.LevelsT = applyFinalDynamic(m.dyns, twovar.SideT, res.LevelsT, &res.Stats, m.prune)
	if sp != nil {
		sp.End(res.Stats.Counters())
	}
	recordTrajectories(res.Plan, m.dyns)
}

// prepare plans one side for the schedule, with (dynamic) or without the
// checks of the dynamic bounds that prune it.
func (m *mining) prepare(ctx context.Context, side twovar.Side, dynamic bool) (*cap.Runner, error) {
	cq := m.cq[side]
	if dynamic {
		cq.ExtraChecks = dynChecks(m.dyns, side, &m.checks, m.prune)
	}
	run, err := cap.Prepare(ctx, cq)
	if err == nil {
		m.runners = append(m.runners, run)
	}
	return run, err
}

// tripped widens a budget trip's Stats from the tripping miner's counters
// to the whole run's up to the abort: every other miner, finished or still
// live, and the candidate filters' dynamic checks. Its CandidatesPruned is
// then the sum of the sites the PruneSet was charged at. Other errors pass
// through.
func (m *mining) tripped(err error) error {
	var be *mine.BudgetError
	if !errors.As(err, &be) {
		return err
	}
	total := m.finished
	for _, run := range m.runners {
		if run.Err() == nil { // the tripping runner's counters are be.Stats
			total.Add(run.Stats())
		}
	}
	total.Add(be.Stats)
	total.SetConstraintChecks += m.checks
	be.Stats = total
	return err
}

// sideBySide is the schedule of the strategies that do not reduce: S to
// completion, then T, each by run; nothing couples the two lattices until
// pair formation.
func sideBySide(run func(context.Context, cap.Query) (*cap.Result, error)) schedule {
	return func(ctx context.Context, m *mining) (mined [2]*cap.Result, err error) {
		for side, cq := range m.cq {
			if mined[side], err = run(ctx, cq); err != nil {
				return mined, err
			}
			m.finished.Add(mined[side].Stats)
		}
		return mined, nil
	}
}

// dovetail is Section 5.2's schedule: one S level, then one T level,
// tightening the Jmax bounds as each side's levels complete. An abort on
// either side stops the whole evaluation — the budget is shared, so
// continuing the other lattice would only dig the overrun deeper.
func dovetail(ctx context.Context, m *mining) (mined [2]*cap.Result, err error) {
	var runs [2]*cap.Runner
	for _, side := range bothSides {
		if runs[side], err = m.prepare(ctx, side, true); err != nil {
			return mined, err
		}
	}
	// Jmax summaries are sound only over complete levels: a side whose
	// counting omits sets (existential pushdown) cannot feed them.
	for _, ds := range m.dyns {
		ds.allowed = !runs[opposite(ds.d.PruneSide)].HasExistential()
	}
	for iter := 1; !runs[twovar.SideS].Done() || !runs[twovar.SideT].Done(); iter++ {
		// One structural span per dovetail round: its children are the two
		// sides' level/finalcheck spans, so the report tree names every Jmax
		// iteration.
		var isp *obs.Span
		if m.tracer != nil {
			isp = m.tracer.Start(fmt.Sprintf("jmax-iter-%d", iter))
		}
		for _, side := range bothSides {
			if runs[side].Done() {
				continue
			}
			if _, _, err := runs[side].Step(); err != nil {
				isp.End(nil)
				return mined, err
			}
			observeLevel(m.dyns, opposite(side), runs[side], false)
		}
		bounded := 0
		for i, ds := range m.dyns {
			if !math.IsInf(ds.bound(), 1) {
				bounded++
			}
			if isp != nil && ds.allowed {
				isp.SetAttrs(ds.series.Attrs(fmt.Sprintf("%s%d_", ds.d.PruneSide, i))...)
			}
		}
		isp.SetAttrs(obs.Int("active_bounds", bounded))
		isp.End(nil)
	}
	// Every lattice is observed to its last level, which makes its bounds
	// exact.
	for _, side := range bothSides {
		finishBounds(m.dyns, opposite(side))
		mined[side] = runs[side].Result()
	}
	return mined, nil
}

// tThenS is the order Section 5.2 weighs against dovetailing: T is mined to
// completion, the bounds pruning S become the exact maxima over it, and
// only then does S run; bounds pruning T are resolved against the finished
// S lattice and applied in finalize. Pruning of S is maximal; the cost is
// that the lattices share no database scans.
func tThenS(ctx context.Context, m *mining) (mined [2]*cap.Result, err error) {
	// Exact maxima over a finished lattice bound every set that can pair,
	// whatever pushdown shaped its levels.
	for _, ds := range m.dyns {
		ds.allowed = true
	}
	// T gets no dynamic filter: the lattice its bounds read does not exist
	// yet, and an idle filter would still cost the miner a checkpointed
	// pass over every level's candidates.
	if mined[twovar.SideT], err = m.complete(ctx, twovar.SideT, false); err != nil {
		return mined, err
	}
	mined[twovar.SideS], err = m.complete(ctx, twovar.SideS, true)
	return mined, err
}

// complete mines one side to completion under a structural mine-<side> span
// (the runner's own spans carry the deltas), feeding each finished level's
// exact maximum to the bounds that prune the other side and finishing them.
func (m *mining) complete(ctx context.Context, side twovar.Side, dynamic bool) (*cap.Result, error) {
	var sp *obs.Span
	if m.tracer != nil {
		sp = m.tracer.Start("mine-" + side.String())
	}
	defer sp.End(nil)
	run, err := m.prepare(ctx, side, dynamic)
	if err != nil {
		return nil, err
	}
	for !run.Done() {
		if _, _, err := run.Step(); err != nil {
			return nil, err
		}
		observeLevel(m.dyns, opposite(side), run, true)
	}
	finishBounds(m.dyns, opposite(side))
	return run.Result(), nil
}

// dynState tracks one evolving bound: the condition prunes d.PruneSide using
// the series observed from the opposite lattice.
type dynState struct {
	d      *twovar.DynamicBound
	series *jmax.Series
	// allowed says the series may be read. The schedule decides, for one of
	// two reasons: Jmax summaries (dovetail) need complete levels from the
	// feeding side; exact maxima over a finished lattice (tThenS) do not.
	allowed bool
	// held is the bound's value when the pruned side's candidate filter was
	// built (+Inf: none, or nothing known yet). Bounds only tighten, so every
	// reported set already satisfies it and finalize re-tests a bound only
	// if it ended below.
	held float64
}

// bound is the current value: +Inf while nothing may be concluded, -Inf
// once the opposite lattice is known to hold no frequent set at all.
func (ds *dynState) bound() float64 {
	if !ds.allowed {
		return math.Inf(1)
	}
	if ds.d.Kind == twovar.BoundCount {
		switch sb := ds.series.SizeBound(); {
		case sb >= jmax.Unbounded:
			return math.Inf(1)
		case sb == 0:
			return math.Inf(-1)
		default:
			return float64(sb)
		}
	}
	return ds.series.Bound()
}

// condition is the 1-var condition at bound b. At -Inf nothing of the pruned
// side can pair, whatever the condition's form, and no aggregate is asked
// to compare against it.
func (ds *dynState) condition(b float64) constraint.Constraint {
	if math.IsInf(b, -1) {
		return constraint.Card(constraint.LE, -1)
	}
	return ds.d.Condition(b)
}

func opposite(side twovar.Side) twovar.Side { return twovar.SideS + twovar.SideT - side }

// dynChecks is the check provider enforcing the dynamic bounds that prune the
// given side: the anti-monotone ones, plus — whatever its form — any bound
// already at -Inf (see condition). Each level gets a check for every such
// bound that is no longer +Inf, in constraint order, built at the bound's
// value for that level (a bound moves only between levels): a candidate
// failing one is charged at its "<side>:jmax:<bound>" site, and every test
// counts in checks. Nil when no bound qualifies.
func dynChecks(dyns []*dynState, side twovar.Side, checks *int64, prune *obs.PruneSet) func(int) []mine.Check {
	type entry struct {
		ds   *dynState
		site *obs.PruneSite
		at   float64               // the bound value cond was built for
		cond constraint.Constraint // rebuilt only when the bound moves
	}
	var active []entry
	for _, ds := range dyns {
		if ds.d.PruneSide != side {
			continue
		}
		if b := ds.bound(); ds.d.AntiMonotonePrunable() || math.IsInf(b, -1) {
			ds.held = b
			active = append(active, entry{ds: ds, site: prune.Site(side.String() + ":jmax:" + ds.d.Label())})
		}
	}
	if len(active) == 0 {
		return nil
	}
	var level []mine.Check
	return func(int) []mine.Check {
		level = level[:0]
		for i := range active {
			e := &active[i]
			b := e.ds.bound()
			if math.IsInf(b, 1) {
				continue
			}
			if e.cond == nil || b != e.at {
				e.at, e.cond = b, e.ds.condition(b)
			}
			level = append(level, mine.Check{Cond: e.cond, Site: e.site, Counter: checks})
		}
		return level
	}
}

// observeLevel feeds the level `from` just completed into the series of
// every readable bound pruning pruneSide (whose quantities are tracked on
// the *other* side, i.e. the side that just stepped): a full Jmax summary
// under dovetail, or, when the schedule reads the bound only after the
// lattice is finished, the level's exact maximum alone.
func observeLevel(dyns []*dynState, pruneSide twovar.Side, from *cap.Runner, exact bool) {
	level, frequent := from.Level(), from.LastFrequent()
	var sets []itemset.Set
	for _, ds := range dyns {
		if ds.d.PruneSide != pruneSide || !ds.allowed {
			continue
		}
		if exact {
			top := math.Inf(-1)
			if ds.d.Kind == twovar.BoundSum {
				for _, c := range frequent {
					v, _ := ds.d.OtherAttr.Eval(attr.Sum, c.Set)
					top = math.Max(top, v)
				}
			}
			ds.series.ObserveExact(level, len(frequent), top)
			continue
		}
		if sets == nil {
			for _, c := range frequent {
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

// finishBounds records that the lattice feeding the bounds that prune
// pruneSide is complete: their series turn exact.
func finishBounds(dyns []*dynState, pruneSide twovar.Side) {
	for _, ds := range dyns {
		if ds.d.PruneSide == pruneSide && ds.allowed {
			ds.series.Finish()
		}
	}
}

// applyFinalDynamic re-filters the reported sets with each dynamic bound's
// final value, where that is tighter than what the side's candidate filter
// already held every set to.
func applyFinalDynamic(dyns []*dynState, side twovar.Side, levels [][]mine.Counted, stats *mine.Stats, prune *obs.PruneSet) [][]mine.Counted {
	var checks []cap.Check
	for _, ds := range dyns {
		if ds.d.PruneSide != side {
			continue
		}
		if b := ds.bound(); b < ds.held {
			checks = append(checks, cap.Check{Cond: ds.condition(b), Site: side.String() + ":final-filter:" + ds.d.Label()})
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

// recordTrajectories fills each plan bound's per-level trajectory from its
// observed series (EXPLAIN ANALYZE's bound evolution). plan.Bounds and dyns
// are parallel: reduce appends to both together.
func recordTrajectories(plan *Plan, dyns []*dynState) {
	for i, ds := range dyns {
		for _, st := range ds.series.History() {
			line := fmt.Sprintf("k=%d: <=%.4g", st.K, st.Bound)
			switch {
			case ds.d.Kind == twovar.BoundCount && st.SizeBound >= jmax.Unbounded:
				line = fmt.Sprintf("k=%d: size unbounded", st.K)
			case ds.d.Kind == twovar.BoundCount:
				line = fmt.Sprintf("k=%d: size<=%d", st.K, st.SizeBound)
			case math.IsInf(st.Bound, 0):
				line = fmt.Sprintf("k=%d: unbounded", st.K)
			}
			plan.Bounds[i].Trajectory = append(plan.Bounds[i].Trajectory, line)
		}
	}
}

// fmSide is the full-materialization counterexample, one variable at a
// time: constraint-check every subset of the domain up front (2^N checks),
// then count the valid ones in ascending cardinality. It exists to make the
// ccc argument measurable and is guarded to tiny domains.
func fmSide(ctx context.Context, cq cap.Query) (*cap.Result, error) {
	const maxFMItems = 16
	stats := &mine.Stats{}
	guard := mine.NewGuard(ctx, cq.Budget, stats)
	prune := obs.PruningFromContext(ctx)
	label := "fm-" + cq.Label
	domain := cq.Domain
	if domain == nil {
		domain = cq.DB.ActiveItems()
	}
	if domain.Len() > maxFMItems {
		return nil, fmt.Errorf("core: FM strategy on %d items (max %d)", domain.Len(), maxFMItems)
	}
	if tracer := obs.FromContext(ctx); tracer != nil {
		sp := tracer.Start(label).WithStats(stats.Counters())
		defer func() { sp.End(stats.Counters()) }()
	}
	// Materialize the valid subsets (checking constraints on all 2^N).
	// frequent holds every valid subset, true once counted frequent.
	var valid []itemset.Set
	frequent := map[string]bool{}
	materialize := make([]*obs.PruneSite, len(cq.Constraints))
	for i, c := range cq.Constraints {
		materialize[i] = prune.Site(label + ":materialize:" + c.String())
	}
	domain.ForEachSubset(func(s itemset.Set) bool {
		ok := true
		for i, c := range cq.Constraints {
			stats.SetConstraintChecks++
			if !c.Satisfies(s) {
				ok = false
				// Every enumerated subset is a materialized candidate;
				// a constraint rejection here is FM's pruning.
				stats.CandidatesPruned++
				materialize[i].Add(1)
				break
			}
		}
		if ok {
			valid = append(valid, s.Clone())
			frequent[s.Key()] = false
		}
		return true
	})
	// Count in ascending cardinality; a set is counted only when its
	// valid proper subsets (only those were materialized and counted) are
	// all known frequent.
	var levels [][]mine.Counted
	freqSite := prune.Site(label + ":frequency")
	for _, s := range valid { // ForEachSubset yields ascending sizes
		countable := true
		s.ForEachSubset(func(sub itemset.Set) bool {
			if f, isValid := frequent[sub.Key()]; isValid && !f && sub.Len() < s.Len() {
				countable = false
			}
			return countable
		})
		if !countable {
			continue
		}
		if err := guard.Check("fm: counting"); err != nil {
			return nil, err
		}
		stats.CandidatesCounted++
		sup := cq.DB.Support(s)
		stats.DBScans++
		if sup < cq.MinSupport {
			stats.CandidatesPruned++
			freqSite.Add(1)
			continue
		}
		stats.FrequentSets++
		stats.ValidSets++
		frequent[s.Key()] = true
		for len(levels) < s.Len() {
			levels = append(levels, nil)
		}
		levels[s.Len()-1] = append(levels[s.Len()-1], mine.Counted{Set: s, Support: sup})
	}
	return &cap.Result{Levels: cap.TrimLevels(levels), Stats: *stats}, nil
}
