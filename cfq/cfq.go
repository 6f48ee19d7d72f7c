// Package cfq is the public API of the constrained-frequent-set-query
// engine: an implementation of Lakshmanan, Ng, Han & Pang, "Optimization of
// Constrained Frequent Set Queries with 2-variable Constraints" (SIGMOD
// 1999).
//
// A CFQ has the form {(S, T) | C}: find all pairs of frequent itemsets
// (S, T) satisfying a conjunction C of constraints — 1-variable constraints
// on S or T alone (sum(S.Price) <= 100), and 2-variable constraints binding
// them (max(S.Price) <= min(T.Price), S.Type = T.Type). The engine pushes
// constraints into the mining loop as deeply as their classification
// allows: succinct and anti-monotone 1-var constraints via the CAP
// algorithm, quasi-succinct 2-var constraints by reduction to succinct
// 1-var conditions after the first counting iteration, and sum/avg 2-var
// constraints via induced weaker constraints plus Jmax iterative pruning.
//
// Basic use:
//
//	ds := cfq.NewDataset(1000)
//	ds.AddTransaction(3, 17, 101)
//	// … load transactions and item attributes …
//	ds.SetNumeric("Price", prices)
//
//	res, err := cfq.NewQuery(ds).
//		MinSupport(50).
//		WhereS(cfq.Range("Price", 400, 1000)).
//		Where2(cfq.Join(cfq.Max, "Price", cfq.LE, cfq.Min, "Price")).
//		Run(cfq.Optimized)
package cfq

import (
	"fmt"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/core"
	"repro/internal/twovar"
)

// Op is a comparison operator.
type Op int

// The comparison operators.
const (
	LE Op = iota // <=
	LT           // <
	GE           // >=
	GT           // >
	EQ           // =
	NE           // ≠
)

func (o Op) internal() constraint.Op {
	return [...]constraint.Op{constraint.LE, constraint.LT, constraint.GE,
		constraint.GT, constraint.EQ, constraint.NE}[o]
}

// Agg is an aggregation function.
type Agg int

// The aggregation functions of the constraint language.
const (
	Min Agg = iota
	Max
	Sum
	Avg
	Count
)

func (a Agg) internal() attr.Aggregate {
	return [...]attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}[a]
}

// Rel is a domain-constraint relation.
type Rel int

// The domain-constraint relations.
const (
	SubsetOf     Rel = iota // S.A ⊆ V
	SupersetOf              // S.A ⊇ V
	EqualTo                 // S.A = V
	DisjointFrom            // S.A ∩ V = ∅
	Intersects              // S.A ∩ V ≠ ∅
	NotSubsetOf             // S.A ⊄ V
)

func (r Rel) internal() constraint.DomainRel {
	return [...]constraint.DomainRel{constraint.SubsetOf, constraint.SupersetOf,
		constraint.EqualTo, constraint.DisjointFrom, constraint.Intersects,
		constraint.NotSubsetOf}[r]
}

// Strategy selects the computation strategy (see the paper's Section 6 and
// the experiments of Section 7).
type Strategy int

// The strategies.
const (
	// Optimized is the CFQ optimizer's strategy: full constraint pushdown
	// with quasi-succinct reduction and Jmax iterative pruning.
	Optimized Strategy = iota
	// OptimizedNoJmax disables only the iterative pruning (ablation).
	OptimizedNoJmax
	// CAPOnly pushes 1-var constraints only (the SIGMOD'98 CAP algorithm).
	CAPOnly
	// AprioriPlus mines everything, then filters (the baseline).
	AprioriPlus
	// FM materializes valid sets before counting (tiny domains only).
	FM
	// Sequential mines the T lattice to completion before S, giving the
	// exact sum bounds instead of the dovetailed Vᵏ series (Section 5.2's
	// non-dovetailed alternative).
	Sequential
	// Auto defers the choice to the planner (internal/plan), whose rule
	// reads the compiled constraint shapes: CAPOnly with no 2-var
	// constraint, Optimized when a 2-var constraint registers a dynamic bound
	// that prunes T, Sequential otherwise. Every entry point accepting a
	// Strategy resolves Auto through Prepare, so `auto` works wherever a
	// strategy name does.
	Auto
)

// strategyNames is the one table of the public strategies, in enum order:
// the CLI / wire spelling (String, ParseStrategy) and the engine spelling.
// Auto has no engine spelling (it must be resolved by the planner first).
// Strategies are resolved by name through core.ParseStrategy so that no
// engine strategy-selection literal lives outside internal/plan
// (scripts/check.sh enforces this with a grep gate).
var strategyNames = [...]struct{ wire, core string }{
	Optimized:       {"optimized", "optimized"},
	OptimizedNoJmax: {"nojmax", "optimized-nojmax"},
	CAPOnly:         {"cap", "cap-1var"},
	AprioriPlus:     {"apriori", "apriori+"},
	FM:              {"fm", "fm"},
	Sequential:      {"sequential", "sequential"},
	Auto:            {"auto", ""},
}

func (s Strategy) internal() core.Strategy {
	if s == Auto {
		panic("cfq: strategy auto must be resolved via Prepare before execution")
	}
	if int(s) < 0 || int(s) >= len(strategyNames) {
		panic(fmt.Sprintf("cfq: unknown strategy %d", int(s)))
	}
	cs, err := core.ParseStrategy(strategyNames[s].core)
	if err != nil {
		panic(fmt.Sprintf("cfq: %v", err))
	}
	return cs
}

// String renders the strategy in the spelling ParseStrategy accepts.
func (s Strategy) String() string {
	if int(s) < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("strategy(%d)", int(s))
	}
	return strategyNames[s].wire
}

// ParseStrategy maps a strategy name (the CLI / wire spelling) to its
// Strategy value: optimized (also the empty name), nojmax, cap, apriori,
// fm, sequential, auto.
func ParseStrategy(s string) (Strategy, error) {
	if s == "" {
		return Optimized, nil
	}
	for i, n := range strategyNames {
		if n.wire == s {
			return Strategy(i), nil
		}
	}
	return 0, fmt.Errorf("cfq: unknown strategy %q", s)
}

// Constraint is a 1-variable constraint specification. Attribute names are
// resolved against the query's Dataset when the query runs.
type Constraint struct {
	build func(*Dataset) (constraint.Constraint, error)
	str   string
}

// String renders the constraint specification.
func (c Constraint) String() string { return c.str }

// Aggregate builds agg(X.attr) op c.
func Aggregate(agg Agg, attrName string, op Op, c float64) Constraint {
	return Constraint{
		str: fmt.Sprintf("%v(X.%s) %v %g", agg.internal(), attrName, op.internal(), c),
		build: func(d *Dataset) (constraint.Constraint, error) {
			num, err := d.numericAttr(attrName)
			if err != nil {
				return nil, err
			}
			return constraint.Agg(agg.internal(), num, attrName, op.internal(), c), nil
		},
	}
}

// Range builds the domain constraint X.attr ⊆ [lo, hi]: every member item's
// attribute lies in the closed interval (the paper's "S.Price <= 400"
// shorthand, with lo/hi = ±Inf for one-sided bounds).
func Range(attrName string, lo, hi float64) Constraint {
	return Constraint{
		str: fmt.Sprintf("X.%s in [%g, %g]", attrName, lo, hi),
		build: func(d *Dataset) (constraint.Constraint, error) {
			num, err := d.numericAttr(attrName)
			if err != nil {
				return nil, err
			}
			return constraint.NumRange(num, attrName, lo, hi), nil
		},
	}
}

// Domain builds the categorical domain constraint X.attr rel {labels}.
func Domain(rel Rel, attrName string, labels ...string) Constraint {
	return Constraint{
		str: fmt.Sprintf("X.%s %v %v", attrName, rel.internal(), labels),
		build: func(d *Dataset) (constraint.Constraint, error) {
			cat, vals, err := d.categoricalValues(attrName, labels)
			if err != nil {
				return nil, err
			}
			return constraint.Domain(rel.internal(), cat, attrName, vals), nil
		},
	}
}

// Cardinality builds count(X) op k.
func Cardinality(op Op, k int) Constraint {
	return Constraint{
		str: fmt.Sprintf("count(X) %v %d", op.internal(), k),
		build: func(*Dataset) (constraint.Constraint, error) {
			return constraint.Card(op.internal(), k), nil
		},
	}
}

// DistinctCount builds count(X.attr) op k over distinct categorical values
// (the paper's count(S.Type) = 1 form).
func DistinctCount(attrName string, op Op, k int) Constraint {
	return Constraint{
		str: fmt.Sprintf("count(X.%s) %v %d", attrName, op.internal(), k),
		build: func(d *Dataset) (constraint.Constraint, error) {
			cat, _, err := d.categoricalValues(attrName, nil)
			if err != nil {
				return nil, err
			}
			return constraint.DistinctCount(cat, attrName, op.internal(), k), nil
		},
	}
}

// Constraint2 is a 2-variable constraint specification.
type Constraint2 struct {
	build func(*Dataset) (twovar.Constraint2, error)
	str   string
}

// String renders the constraint specification.
func (c Constraint2) String() string { return c.str }

// Join builds the 2-var aggregation constraint
// agg1(S.attrA) op agg2(T.attrB).
func Join(agg1 Agg, attrA string, op Op, agg2 Agg, attrB string) Constraint2 {
	return Constraint2{
		str: fmt.Sprintf("%v(S.%s) %v %v(T.%s)",
			agg1.internal(), attrA, op.internal(), agg2.internal(), attrB),
		build: func(d *Dataset) (twovar.Constraint2, error) {
			numA, err := d.numericAttr(attrA)
			if err != nil {
				return nil, err
			}
			numB, err := d.numericAttr(attrB)
			if err != nil {
				return nil, err
			}
			return twovar.Agg2(agg1.internal(), numA, attrA, op.internal(),
				agg2.internal(), numB, attrB), nil
		},
	}
}

// DomainJoin builds the 2-var domain constraint S.attrA rel T.attrB
// (e.g. DomainJoin(EqualTo, "Type", "Type") is S.Type = T.Type).
func DomainJoin(rel Rel, attrA, attrB string) Constraint2 {
	return Constraint2{
		str: fmt.Sprintf("S.%s %v T.%s", attrA, rel.internal(), attrB),
		build: func(d *Dataset) (twovar.Constraint2, error) {
			catA, _, err := d.categoricalValues(attrA, nil)
			if err != nil {
				return nil, err
			}
			catB, _, err := d.categoricalValues(attrB, nil)
			if err != nil {
				return nil, err
			}
			return twovar.Dom2(rel.internal(), catA, attrA, catB, attrB), nil
		},
	}
}
