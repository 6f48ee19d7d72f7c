package exp

import (
	"fmt"
	"math"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/twovar"
	"repro/internal/txdb"
)

// fig8bWorld is the §7.2 workload: 1-var price constraints on each side
// plus the 2-var constraint S.Type = T.Type, with the overlap between the
// Type populations of the two sides as the knob.
type fig8bWorld struct {
	db     *txdb.DB
	prices attr.Numeric
	minSup int
	cfg    Config
}

func newFig8bWorld(cfg Config) (*fig8bWorld, error) {
	cfg = cfg.normalize()
	db, err := cfg.QuestDB()
	if err != nil {
		return nil, err
	}
	prices := attr.Numeric(gen.UniformPrices(1000, 0, 1000, cfg.Seed+202))
	return &fig8bWorld{db: db, prices: prices, minSup: cfg.minSup(cfg.numTx()), cfg: cfg}, nil
}

// query builds the §7.2 query for S.Price >= sLo, T.Price <= tHi and the
// given Type overlap percentage.
func (w *fig8bWorld) query(sLo, tHi, overlapPct float64) (core.CFQ, error) {
	ta, err := gen.TypesWithOverlap(1000,
		func(i int) bool { return w.prices[i] >= sLo },
		func(i int) bool { return w.prices[i] <= tHi },
		10, overlapPct/100, w.cfg.Seed+303)
	if err != nil {
		return core.CFQ{}, err
	}
	cat := &attr.Categorical{Values: ta.Values, Labels: ta.Labels}
	return core.CFQ{
		DB:          w.db,
		MinSupportS: w.minSup,
		MinSupportT: w.minSup,
		ConstraintsS: []constraint.Constraint{
			constraint.NumRange(w.prices, "Price", sLo, math.Inf(1)),
		},
		ConstraintsT: []constraint.Constraint{
			constraint.NumRange(w.prices, "Price", math.Inf(-1), tHi),
		},
		Constraints2: []twovar.Constraint2{
			twovar.Dom2(constraint.EqualTo, cat, "Type", cat, "Type"),
		},
		MaxPairs: 16,
	}, nil
}

// Fig8bQuery exposes one workload point of experiment E4 (S.Price >= sLo,
// T.Price <= tHi, the given Type overlap percentage) for external tests.
func Fig8bQuery(cfg Config, sLo, tHi, overlapPct float64) (core.CFQ, error) {
	w, err := newFig8bWorld(cfg)
	if err != nil {
		return core.CFQ{}, err
	}
	return w.query(sLo, tHi, overlapPct)
}

// Fig8bResult reproduces Figure 8(b): three curves over Type overlap —
// Apriori⁺ (flat 1×), CAP on 1-var constraints only, and the full
// optimized strategy.
type Fig8bResult struct {
	Overlaps []float64
	CAPOnly  []Speedup
	Full     []Speedup
	Table    *Table
}

// Fig8bOverlaps are the paper's x-axis points (percent Type overlap).
var Fig8bOverlaps = []float64{20, 40, 60, 80}

// Fig8b runs experiment E4.
func Fig8b(cfg Config) (*Fig8bResult, error) {
	w, err := newFig8bWorld(cfg)
	if err != nil {
		return nil, err
	}
	res := &Fig8bResult{
		Table: &Table{
			Title:  "Figure 8(b): T.Price <= 600 & S.Price >= 400 & S.Type = T.Type (speedup vs Apriori+)",
			Header: []string{"type overlap %", "1-var only (time)", "1-var only (work)", "1-var + 2-var (time)", "1-var + 2-var (work)"},
		},
	}
	for _, overlap := range Fig8bOverlaps {
		q, err := w.query(400, 600, overlap)
		if err != nil {
			return nil, err
		}
		base, _, err := run(q, core.StrategyAprioriPlus)
		if err != nil {
			return nil, err
		}
		capOnly, _, err := run(q, core.StrategyCAPOnly)
		if err != nil {
			return nil, err
		}
		full, _, err := run(q, core.StrategyOptimized)
		if err != nil {
			return nil, err
		}
		if base.Pairs != full.Pairs || capOnly.Pairs != full.Pairs {
			return nil, fmt.Errorf("exp: fig8b overlap %v: strategies disagree", overlap)
		}
		spCap := speedup(base, capOnly)
		spFull := speedup(base, full)
		res.Overlaps = append(res.Overlaps, overlap)
		res.CAPOnly = append(res.CAPOnly, spCap)
		res.Full = append(res.Full, spFull)
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("%.0f", overlap),
			f2(spCap.Time), f2(spCap.Work), f2(spFull.Time), f2(spFull.Work),
		})
	}
	return res, nil
}

// RangeTable2Result reproduces the §7.2 range table: CAP-only vs full
// speedups (and their ratio) as the price ranges widen, at 40% Type
// overlap.
type RangeTable2Result struct {
	Rows    [][2]float64 // (sLo, tHi)
	CAPOnly []Speedup
	Full    []Speedup
	Ratio   []float64 // full/CAP work ratio
	Table   *Table
}

// RangeTable2 runs experiment E5.
func RangeTable2(cfg Config) (*RangeTable2Result, error) {
	w, err := newFig8bWorld(cfg)
	if err != nil {
		return nil, err
	}
	res := &RangeTable2Result{
		Table: &Table{
			Title:  "Speedups for varying ranges at 40% Type overlap (§7.2)",
			Header: []string{"S.Price", "T.Price", "1-var only (work)", "1-var + 2-var (work)", "ratio"},
		},
	}
	for _, row := range [][2]float64{{100, 900}, {400, 600}, {800, 200}} {
		q, err := w.query(row[0], row[1], 40)
		if err != nil {
			return nil, err
		}
		base, _, err := run(q, core.StrategyAprioriPlus)
		if err != nil {
			return nil, err
		}
		capOnly, _, err := run(q, core.StrategyCAPOnly)
		if err != nil {
			return nil, err
		}
		full, _, err := run(q, core.StrategyOptimized)
		if err != nil {
			return nil, err
		}
		spCap := speedup(base, capOnly)
		spFull := speedup(base, full)
		ratio := 0.0
		if spCap.Work > 0 {
			ratio = spFull.Work / spCap.Work
		}
		res.Rows = append(res.Rows, row)
		res.CAPOnly = append(res.CAPOnly, spCap)
		res.Full = append(res.Full, spFull)
		res.Ratio = append(res.Ratio, ratio)
		res.Table.Rows = append(res.Table.Rows, []string{
			fmt.Sprintf("[%g, 1000]", row[0]),
			fmt.Sprintf("[0, %g]", row[1]),
			f2(spCap.Work), f2(spFull.Work), f2(ratio),
		})
	}
	return res, nil
}
