package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// PhaseProfile breaks one workload's evaluation cost down by phase, per
// strategy: the same decomposition the paper argues from (Apriori⁺ pays
// everything in mining levels; CAP moves work into the classify
// pushdown; the optimized strategy adds the Jmax iterations and dovetailed
// pair formation). JSON is its machine-readable form.
type PhaseProfile struct {
	// Workload identifies the query (a Figure 8(a) point).
	Workload string `json:"workload"`
	// Transactions and MinSupport record the scale the profile ran at.
	Transactions int `json:"transactions"`
	MinSupport   int `json:"min_support"`
	// Strategies holds one entry per profiled strategy.
	Strategies []StrategyPhases `json:"strategies"`
}

// StrategyPhases is the per-phase cost of one strategy on the workload.
type StrategyPhases struct {
	Strategy  string  `json:"strategy"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// Pairs is the answer size (identical across strategies by
	// construction; recorded as a cross-check).
	Pairs int64 `json:"pairs"`
	// Phases flattens the span tree in visit order; Depth preserves the
	// nesting so the tree can be reconstructed.
	Phases []PhaseCost `json:"phases"`
	// Totals is the sum of every phase's counter delta (== the run's
	// total work counters, by the attribution contract).
	Totals obs.Counters `json:"totals,omitempty"`
}

// PhaseCost is one span of a strategy's evaluation.
type PhaseCost struct {
	Name       string       `json:"name"`
	Depth      int          `json:"depth"`
	DurationMS float64      `json:"duration_ms"`
	Stats      obs.Counters `json:"stats,omitempty"`
}

// PhaseStrategies are the strategies Phases profiles, in report order.
var PhaseStrategies = []core.Strategy{
	core.StrategyAprioriPlus,
	core.StrategyCAPOnly,
	core.StrategyOptimizedNoJmax,
	core.StrategyOptimized,
}

// Phases runs the Figure 8(a) mid-overlap point (S prices in [400, 1000],
// T prices in [0, 700]) once per strategy under a tracer and collects each
// run's span tree. Wall times vary run to run; the counter deltas are
// deterministic for a given Config.
func Phases(cfg Config) (*PhaseProfile, error) {
	cfg = cfg.normalize()
	w, err := newFig8aWorld(cfg)
	if err != nil {
		return nil, err
	}
	q := w.query(400, 700)
	prof := &PhaseProfile{
		Workload:     "fig8a overlap=50% (max(S.Price) <= min(T.Price))",
		Transactions: cfg.numTx(),
		MinSupport:   w.minSup,
	}
	if err := buildPairs(q); err != nil {
		return nil, err
	}
	var pairs int64 = -1
	for _, st := range PhaseStrategies {
		tracer := obs.NewTracer(obs.Options{Name: st.String()})
		ctx := obs.WithTracer(context.Background(), tracer)
		start := time.Now()
		res, err := core.Run(ctx, q, st)
		if err != nil {
			return nil, fmt.Errorf("exp: phases %v: %w", st, err)
		}
		elapsed := time.Since(start)
		if pairs < 0 {
			pairs = res.PairCount
		} else if res.PairCount != pairs {
			return nil, fmt.Errorf("exp: phases %v: answers disagree (%d vs %d pairs)",
				st, res.PairCount, pairs)
		}
		rep := tracer.Report()
		sp := StrategyPhases{
			Strategy:  st.String(),
			ElapsedMS: ms(elapsed),
			Pairs:     res.PairCount,
			Totals:    rep.Totals,
		}
		flattenPhases(rep.Root, 0, &sp.Phases)
		prof.Strategies = append(prof.Strategies, sp)
	}
	return prof, nil
}

// flattenPhases walks the span tree depth-first, recording every span below
// the root with its nesting depth.
func flattenPhases(s *obs.SpanReport, depth int, out *[]PhaseCost) {
	if s == nil {
		return
	}
	if depth > 0 {
		*out = append(*out, PhaseCost{
			Name:       s.Name,
			Depth:      depth - 1,
			DurationMS: s.DurationMS,
			Stats:      s.Stats,
		})
	}
	for _, c := range s.Children {
		flattenPhases(c, depth+1, out)
	}
}

// JSON renders the profile as indented JSON (cmd/experiments -phases-json).
func (p *PhaseProfile) JSON() (string, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return "", err
	}
	return string(b) + "\n", nil
}

// PhaseTable renders the profile as a Table: one row per strategy, with
// elapsed time and the dominant cost phases.
func (p *PhaseProfile) PhaseTable() *Table {
	t := &Table{
		Title:  "Per-phase cost by strategy: " + p.Workload,
		Header: []string{"strategy", "elapsed ms", "phases", "candidates", "set checks", "pair checks"},
	}
	for _, sp := range p.Strategies {
		t.Rows = append(t.Rows, []string{
			sp.Strategy,
			f2(sp.ElapsedMS),
			fmt.Sprintf("%d", len(sp.Phases)),
			fmt.Sprintf("%d", sp.Totals["candidates_counted"]),
			fmt.Sprintf("%d", sp.Totals["set_constraint_checks"]),
			fmt.Sprintf("%d", sp.Totals["pair_checks"]),
		})
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
