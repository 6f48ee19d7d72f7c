// Package plan is the cost-based query planner: given a query's feature
// vector (internal/core/estimate.go via core.BuildExplainFeatures) it
// chooses an evaluation strategy, whether to run the Jmax iterative
// pruning loop (and a cutoff for it), and which complete-mining engine to
// use — producing an executable decision rather than a description.
//
// The static model prices each strategy with terms that mirror the paper's
// pruning arguments:
//
//   - lattice breadth: the expected valid L1 frontier per side
//     (frequent items × 1-var selectivity) — CAP's pushdown benefit;
//   - quasi-succinct reduction (Section 4): each quasi-succinct 2-var
//     constraint shrinks both frontiers by a constant factor after one
//     counting iteration;
//   - induced weakening + Jmax (Section 5): non-quasi-succinct 2-var
//     constraints prune only through dynamic bounds, which the dovetailed
//     strategy tightens mid-flight (shrink on both sides, minus a
//     per-iteration summarization overhead) and the sequential strategy
//     resolves exactly but late (maximal S-side shrink, no T-side shrink);
//   - pair formation: 2-var constraints not pushed into the lattices are
//     paid for at the S×T cross product — the dominant term for the
//     no-reduction baselines.
//
// Costs are unitless; only their order matters. An online feedback loop
// (Fold) corrects mispredictions per query class from the workload
// journal's shadow-sampled regret table, and a fallback path guarantees a
// decision — the configured default strategy — whenever features are
// missing or degenerate.
package plan

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/workload"
)

// SchemaVersion versions the Decision wire shape.
const SchemaVersion = 1

// Strategy names, in the public (wire) spelling used by the cfq API, the
// workload journal and the regret table. internal/plan deliberately speaks
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

// Names lists every plannable strategy in preference order: on a cost tie
// the earlier name wins, so decisions are deterministic.
func Names() []string {
	return []string{Optimized, NoJmax, Sequential, CAP, Apriori, FM}
}

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

// Decision sources.
const (
	SourceModel    = "model"    // static cost model
	SourceFeedback = "feedback" // measured per-class override
	SourceFallback = "fallback" // missing/degenerate features
)

// mDecisions counts planner decisions by chosen strategy and source.
var mDecisions = obs.NewCounterVec("plan_decisions_total", "strategy", "source")

// Alternative is one costed strategy the planner did not choose.
type Alternative struct {
	Strategy string  `json:"strategy"`
	Cost     float64 `json:"cost"`
	Reason   string  `json:"reason"`
}

// Decision is the planner's executable output for one query.
type Decision struct {
	Schema   int    `json:"schema"`
	Strategy string `json:"strategy"`
	// Jmax reports whether the iterative dynamic-bound loop runs (true only
	// for the dovetailed optimized strategy).
	Jmax bool `json:"jmax"`
	// JmaxCutoff, when > 0, freezes the dynamic bounds after that many
	// dovetail iterations (core.CFQ.JmaxCutoff).
	JmaxCutoff int    `json:"jmax_cutoff,omitempty"`
	Source     string `json:"source"`
	Class      string `json:"class,omitempty"`
	// Cost is the chosen strategy's modeled cost (unitless; comparable only
	// within one decision).
	Cost float64 `json:"cost"`
	// Rejected lists the costed alternatives, cheapest first.
	Rejected []Alternative `json:"rejected,omitempty"`
}

// Choice converts the decision to its EXPLAIN rendering.
func (d *Decision) Choice() *obs.PlanChoice {
	if d == nil {
		return nil
	}
	pc := &obs.PlanChoice{
		Strategy:   d.Strategy,
		Jmax:       d.Jmax,
		JmaxCutoff: d.JmaxCutoff,
		Source:     d.Source,
		Cost:       d.Cost,
	}
	for _, alt := range d.Rejected {
		pc.Rejected = append(pc.Rejected, obs.PlanAlternative{
			Strategy: alt.Strategy, Cost: alt.Cost, Reason: alt.Reason,
		})
	}
	return pc
}

// classFeedback is the measured per-class table folded from the regret
// snapshot: mean wall per strategy (wire names), plus the best strategy.
type classFeedback struct {
	best   string
	meanMS map[string]float64
}

// Options configure a Planner.
type Options struct {
	// Default is the strategy the fallback path picks (wire name).
	// Empty = Optimized.
	Default string
	// MaxClasses bounds the per-class feedback table (<= 0: 64).
	MaxClasses int
}

// Planner makes strategy decisions. Safe for concurrent use. Decisions are
// deterministic in (features, class, folded feedback state).
type Planner struct {
	opts Options

	mu      sync.Mutex
	classes map[string]*classFeedback
	// cal holds per-strategy EWMA calibration multipliers: measured
	// relative cost over predicted relative cost, folded from classes whose
	// rollups carry feature vectors. 1 = model trusted as-is.
	cal       map[string]float64
	decisions map[string]int64 // by source
	folds     int64
}

// New builds a planner.
func New(opts Options) *Planner {
	if opts.Default == "" {
		opts.Default = Optimized
	}
	if _, ok := coreNames[opts.Default]; !ok {
		opts.Default = Optimized
	}
	if opts.MaxClasses <= 0 {
		opts.MaxClasses = 64
	}
	return &Planner{
		opts:      opts,
		classes:   map[string]*classFeedback{},
		cal:       map[string]float64{},
		decisions: map[string]int64{},
	}
}

// minFeedbackRuns is how many shadow runs a strategy needs within a class
// before its measured mean participates in feedback decisions.
const minFeedbackRuns = 2

// feedbackMargin is how much slower (measured) the model's pick must be
// than the class's measured best before feedback overrides the model.
const feedbackMargin = 1.1

// fmGuardItems mirrors core's maxFMItems guard: FM materializes 2^N
// subsets and is only usable on tiny domains.
const fmGuardItems = 16

// Decide picks a strategy for the query described by f. class, when known
// (the workload journal's ClassKey), routes measured per-class feedback;
// empty class uses the static model only. A nil or degenerate feature
// vector falls back to the configured default strategy — never an error.
func (p *Planner) Decide(f *obs.QueryFeatures, class string) *Decision {
	if f == nil || f.Transactions <= 0 || (f.DomainS <= 0 && f.DomainT <= 0) {
		return p.fallback(class)
	}
	costs := modelCosts(f)

	p.mu.Lock()
	for i := range costs {
		if m, ok := p.cal[costs[i].name]; ok && !math.IsInf(costs[i].cost, 1) {
			costs[i].cost *= m
		}
	}
	cf := p.classes[class]
	p.mu.Unlock()

	// Order by adjusted cost; ties resolve by the Names() preference order,
	// which costs[] is already in.
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].cost < costs[j].cost })
	chosen := costs[0]
	source := SourceModel

	// Feedback override: when shadow measurements exist for this class and
	// say the model's pick is more than feedbackMargin slower than the
	// measured best, trust the measurement.
	if cf != nil && cf.best != "" && cf.best != chosen.name {
		bestMS := cf.meanMS[cf.best]
		if pickMS, measured := cf.meanMS[chosen.name]; measured && bestMS > 0 && pickMS > feedbackMargin*bestMS {
			for i := range costs {
				if costs[i].name == cf.best {
					chosen = costs[i]
					source = SourceFeedback
					chosen.reason = fmt.Sprintf("measured %.3gms vs %.3gms for model pick in this class", bestMS, pickMS)
					break
				}
			}
		}
	}

	d := &Decision{
		Schema:   SchemaVersion,
		Strategy: chosen.name,
		Source:   source,
		Class:    class,
		Cost:     round3(chosen.cost),
	}
	if d.Strategy == Optimized && f.Constraints2 > 0 {
		d.Jmax = true
		// Bound the iterative loop: dynamic bounds tighten in the first few
		// levels; past ~log2 of the frontier breadth the summarization cost
		// outweighs further tightening, so the bounds freeze.
		b := maxInt(f.FrequentItemsS, f.FrequentItemsT)
		d.JmaxCutoff = 2 + int(math.Ceil(math.Log2(float64(1+b))))
	}
	for _, c := range costs {
		if c.name == chosen.name {
			continue
		}
		reason := c.reason
		if reason == "" {
			reason = fmt.Sprintf("modeled cost %.3g vs %.3g", round3(c.cost), round3(chosen.cost))
		}
		cost := round3(c.cost)
		if math.IsInf(cost, 0) || math.IsNaN(cost) {
			cost = -1 // guarded out entirely; JSON cannot carry Inf
		}
		d.Rejected = append(d.Rejected, Alternative{Strategy: c.name, Cost: cost, Reason: reason})
	}
	p.record(d)
	return d
}

// fallback is the no-features path: the configured default, never an error.
func (p *Planner) fallback(class string) *Decision {
	d := &Decision{
		Schema:   SchemaVersion,
		Strategy: p.opts.Default,
		Jmax:     p.opts.Default == Optimized,
		Source:   SourceFallback,
		Class:    class,
	}
	p.record(d)
	return d
}

func (p *Planner) record(d *Decision) {
	mDecisions.WithLabels(d.Strategy, d.Source).Inc()
	p.mu.Lock()
	p.decisions[d.Source]++
	p.mu.Unlock()
}

// Fold ingests one snapshot of the workload's measured ground truth: the
// shadow regret table (per class × strategy mean walls) and the journal's
// per-class rollups (whose feature vectors let predicted costs be compared
// against measured ones). Repeated folds replace per-class tables and move
// the per-strategy calibration by EWMA.
func (p *Planner) Fold(regret []workload.ClassRegret, rollups []workload.ClassRollup) {
	feats := map[string]*obs.QueryFeatures{}
	for _, r := range rollups {
		if r.Features != nil {
			feats[r.Class] = r.Features
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.folds++
	for _, cr := range regret {
		cf := &classFeedback{meanMS: map[string]float64{}}
		bestMS := 0.0
		for _, sr := range cr.Strategies {
			if sr.Runs < minFeedbackRuns {
				continue
			}
			if _, ok := coreNames[sr.Strategy]; !ok {
				continue // "session", "auto", … — not a plannable strategy
			}
			cf.meanMS[sr.Strategy] = sr.MeanMS
			if bestMS == 0 || sr.MeanMS < bestMS {
				bestMS = sr.MeanMS
				cf.best = sr.Strategy
			}
		}
		if len(cf.meanMS) == 0 {
			continue
		}
		if _, ok := p.classes[cr.Class]; !ok && len(p.classes) >= p.opts.MaxClasses {
			continue
		}
		p.classes[cr.Class] = cf

		// Calibration: compare measured relative cost (vs the class's best)
		// with predicted relative cost, and nudge each strategy's multiplier
		// toward the measured ratio.
		f := feats[cr.Class]
		if f == nil || bestMS <= 0 {
			continue
		}
		predicted := map[string]float64{}
		for _, c := range modelCosts(f) {
			predicted[c.name] = c.cost
		}
		predBest := math.Inf(1)
		for name := range cf.meanMS {
			if pc, ok := predicted[name]; ok && pc < predBest {
				predBest = pc
			}
		}
		if math.IsInf(predBest, 1) || predBest <= 0 {
			continue
		}
		for name, ms := range cf.meanMS {
			pc, ok := predicted[name]
			if !ok || pc <= 0 || math.IsInf(pc, 1) {
				continue
			}
			measuredRel := ms / bestMS
			predictedRel := pc / predBest
			ratio := measuredRel / predictedRel
			// Clamp single-fold influence; EWMA smooths across folds.
			ratio = math.Max(0.25, math.Min(4, ratio))
			if cur, ok := p.cal[name]; ok {
				p.cal[name] = 0.8*cur + 0.2*ratio
			} else {
				p.cal[name] = ratio
			}
		}
	}
}

// State is the planner's introspection view (/statz).
type State struct {
	Default     string             `json:"default"`
	Folds       int64              `json:"folds"`
	Classes     int                `json:"classes"`
	Decisions   map[string]int64   `json:"decisions,omitempty"`
	Calibration map[string]float64 `json:"calibration,omitempty"`
}

// State snapshots the planner.
func (p *Planner) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := State{Default: p.opts.Default, Folds: p.folds, Classes: len(p.classes)}
	if len(p.decisions) > 0 {
		st.Decisions = make(map[string]int64, len(p.decisions))
		for k, v := range p.decisions {
			st.Decisions[k] = v
		}
	}
	if len(p.cal) > 0 {
		st.Calibration = make(map[string]float64, len(p.cal))
		for k, v := range p.cal {
			st.Calibration[k] = round3(v)
		}
	}
	return st
}

// costed is one strategy's modeled cost.
type costed struct {
	name   string
	cost   float64
	reason string // non-empty for guard rejections (FM)
}

// modelCosts prices every strategy for the feature vector, returned in
// Names() preference order. All terms are unitless.
func modelCosts(f *obs.QueryFeatures) []costed {
	selS, selT := clampSel(f.SelectivityS), clampSel(f.SelectivityT)
	rawS, rawT := math.Max(1, float64(f.FrequentItemsS)), math.Max(1, float64(f.FrequentItemsT))
	bS, bT := math.Max(1, rawS*selS), math.Max(1, rawT*selT)
	n := math.Max(1, float64(f.Transactions))
	pass := n / 1000

	// lat models one side's counted-lattice work: depth grows ~log of the
	// frontier, per-level candidate counts ~quadratically in breadth.
	lat := func(b float64) float64 {
		return pass * (1 + math.Log2(1+b)) * (1 + b*b/256)
	}
	qs := f.QuasiSuccinct2
	nqs := f.Constraints2 - qs
	// Quasi-succinct reduction shrinks both frontiers (succinct 1-var
	// conditions prune at generation — Section 4).
	redQS := math.Pow(0.55, math.Min(float64(qs), 3))
	// Non-quasi-succinct constraints prune only via dynamic bounds: the
	// dovetailed Jmax loop shrinks both sides mid-flight …
	dynOpt := math.Pow(0.7, math.Min(float64(nqs), 3))
	// … while the sequential strategy resolves exact bounds against the
	// finished T lattice: maximal S-side shrink (exact ≥ iterative), but no
	// mid-flight shrink at all for T.
	exact := 0.85 * dynOpt
	// jmaxProbe is the per-iteration summarization + filter overhead the
	// dovetailed loop pays whether or not the bounds end up pruning.
	probe := 0.0
	if f.Constraints2 > 0 {
		probe = float64(f.Constraints2) * (bS + bT) * pass * 0.02
	}
	// replan is phase 1 + constraint reduction setup: only the 2-var
	// strategies pay it.
	replan := 2 * pass
	if f.Constraints2 == 0 {
		// No 2-var constraints: reduction machinery is a no-op.
		redQS, dynOpt, exact, probe = 1, 1, 1, 0
	}
	// Pair formation: 2-var constraints not pushed into the lattices are
	// checked on the S×T product of valid sets (≈ 2× frontier each side).
	pairs := func(a, b float64) float64 {
		if f.Constraints2 == 0 {
			return 0
		}
		return float64(f.Constraints2) * (2 * a) * (2 * b) * pass * 1e-4
	}

	fmCost := math.Inf(1)
	fmReason := fmt.Sprintf("full materialization guarded to %d-item domains", fmGuardItems)
	if dom := maxInt(f.DomainS, f.DomainT); dom <= fmGuardItems && dom > 0 {
		fmCost = math.Pow(2, float64(dom)) * pass * 0.01
		fmReason = ""
	}

	return []costed{
		{name: Optimized, cost: replan + lat(bS*redQS*dynOpt) + lat(bT*redQS*dynOpt) + pairs(bS*redQS*dynOpt, bT*redQS*dynOpt) + probe},
		{name: NoJmax, cost: replan + lat(bS*redQS) + lat(bT*redQS) + pairs(bS*redQS, bT*redQS)},
		{name: Sequential, cost: replan + lat(bS*redQS*exact) + lat(bT*redQS) + pairs(bS*redQS*exact, bT*redQS)},
		{name: CAP, cost: lat(bS) + lat(bT) + pairs(bS, bT)},
		{name: Apriori, cost: lat(rawS) + lat(rawT) + pairs(rawS, rawT)},
		{name: FM, cost: fmCost, reason: fmReason},
	}
}

func clampSel(s float64) float64 {
	if s < 0 { // -1: no estimate possible
		return 1
	}
	return math.Max(0.01, math.Min(1, s))
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func round3(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Round(v*1000) / 1000
}
