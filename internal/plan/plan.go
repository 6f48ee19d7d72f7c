// Package plan is the cost-based query planner: given a query's feature
// vector (internal/core/estimate.go via core.BuildExplainFeatures) it picks
// an evaluation strategy, whether the Jmax iterative pruning loop runs, and
// the cutoff that freezes its bounds — an executable decision rather than a
// description.
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
// Costs are unitless; only their order matters. Decisions are a pure
// function of the feature vector, and a fallback path guarantees a
// decision — the configured default strategy — whenever features are
// missing or degenerate.
package plan

import (
	"fmt"
	"math"
	"sort"
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
	// Jmax reports whether the iterative dynamic-bound loop runs: true when
	// the optimized strategy is chosen for a query with 2-var constraints
	// (and on the fallback path whenever the default is optimized).
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

// Options configure a Planner.
type Options struct {
	// Default is the strategy the fallback path picks (wire name).
	// Empty = Optimized.
	Default string
}

// Planner makes strategy decisions. Safe for concurrent use. Decisions are
// deterministic in the feature vector.
type Planner struct {
	opts Options

	mu        sync.Mutex
	decisions map[string]int64 // by source
}

// New builds a planner.
func New(opts Options) *Planner {
	if opts.Default == "" {
		opts.Default = Optimized
	}
	if _, ok := coreNames[opts.Default]; !ok {
		opts.Default = Optimized
	}
	return &Planner{opts: opts, decisions: map[string]int64{}}
}

// fmGuardItems mirrors core's maxFMItems guard: FM materializes 2^N
// subsets and is only usable on tiny domains.
const fmGuardItems = 16

// Decide picks a strategy for the query described by f. class (the workload
// journal's ClassKey, or empty) only labels the decision. A nil or
// degenerate feature vector falls back to the configured default strategy —
// never an error.
func (p *Planner) Decide(f *obs.QueryFeatures, class string) *Decision {
	if f == nil || f.Transactions <= 0 || (f.DomainS <= 0 && f.DomainT <= 0) {
		return p.fallback(class)
	}
	costs := modelCosts(f)
	// Order by cost; ties resolve by the Names() preference order, which
	// costs[] is already in.
	sort.SliceStable(costs, func(i, j int) bool { return costs[i].cost < costs[j].cost })
	chosen := costs[0]

	d := &Decision{
		Schema:   SchemaVersion,
		Strategy: chosen.name,
		Source:   SourceModel,
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

// State is the planner's introspection view (/statz).
type State struct {
	Default   string           `json:"default"`
	Decisions map[string]int64 `json:"decisions,omitempty"`
}

// State snapshots the planner.
func (p *Planner) State() State {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := State{Default: p.opts.Default}
	if len(p.decisions) > 0 {
		st.Decisions = make(map[string]int64, len(p.decisions))
		for k, v := range p.decisions {
			st.Decisions[k] = v
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
