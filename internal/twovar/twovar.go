// Package twovar implements the paper's central contribution: 2-variable
// constraints C(S, T) for constrained frequent set queries, their
// anti-monotonicity and quasi-succinctness classification (Figure 1), the
// quasi-succinct reduction to pairs of succinct 1-var constraints whose
// constants come from the frequent items of each side (Figures 2 and 3),
// and the induced weaker constraints for sum()/avg() forms (Figure 4)
// together with the dynamic sum bounds that the Jmax iterative pruning of
// Section 5.2 keeps tightening.
//
// A reduction is *sound* when it never prunes a valid S-set or T-set, and
// *tight* when it prunes every invalid one (Definition 5). All reductions
// produced here are sound; the Tight flags record per-side tightness.
// Tightness claims are verified in the tests against exhaustive oracles.
package twovar

import (
	"fmt"
	"math"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
)

// Side identifies one of the two variables of a CFQ.
type Side int

// The two variables.
const (
	SideS Side = iota
	SideT
)

// String returns "S" or "T".
func (s Side) String() string {
	if s == SideS {
		return "S"
	}
	return "T"
}

// Class2 is the optimization-relevant classification of a 2-var constraint
// (the two columns of Figure 1).
type Class2 struct {
	// AntiMonotone reports 2-var anti-monotonicity (Definition 4) — very
	// few constraints have it, which is the paper's negative result.
	AntiMonotone bool
	// QuasiSuccinct reports whether the constraint reduces to two succinct
	// 1-var constraints that are sound *and tight* (Definition 5).
	QuasiSuccinct bool
}

// BoundKind says which achievable quantity of the opposite lattice a
// dynamic bound tracks.
type BoundKind int

// The dynamic bound kinds.
const (
	// BoundSum tracks sup{sum(X.B) | X frequent}: sum(L1.B) right after
	// level 1, tightened to the Vᵏ series (Section 5.2).
	BoundSum BoundKind = iota
	// BoundCount tracks sup{count(X) | X frequent}: unbounded after level
	// 1, tightened to k + Jmaxᵏ as levels complete. This extends the
	// paper's Jmax machinery to 2-var count() constraints (an instance of
	// the "expanding the constraint language" future work of Section 8).
	BoundCount
)

// DynamicBound describes an evolving pruning condition
// agg(X.attr) Op B where B is a sup-achievable quantity of the other
// side's frequent sets (see BoundKind), tightened by Jmax as the other
// lattice deepens. The CFQ engine owns the bound value and re-derives the
// condition each level.
type DynamicBound struct {
	// Kind selects the tracked quantity.
	Kind BoundKind
	// PruneSide is the variable the condition constrains.
	PruneSide Side
	// Agg, Attr, AttrName describe the pruned side's aggregate term
	// (sum(S.A), avg(S.A), count(S), …).
	Agg      attr.Aggregate
	Attr     attr.Numeric
	AttrName string
	// Op is the comparison against the evolving bound (LE or LT).
	Op constraint.Op
	// OtherAttr/OtherName is the attribute whose aggregate over the
	// *other* side's frequent sets the bound tracks (for BoundCount the
	// values are irrelevant; only the level structure matters).
	OtherAttr attr.Numeric
	OtherName string
}

// Condition builds the concrete 1-var constraint for the current bound.
func (d *DynamicBound) Condition(bound float64) constraint.Constraint {
	if d.Agg == attr.Count {
		return constraint.Card(d.Op, int(bound))
	}
	return constraint.Agg(d.Agg, d.Attr, d.AttrName, d.Op, bound)
}

// AntiMonotonePrunable reports whether the condition may be used to discard
// candidates levelwise (requires the aggregate term to be anti-monotone
// under the bound: sum or max with <=). Otherwise it may only gate
// reporting — a violating set's superset could still become valid.
func (d *DynamicBound) AntiMonotonePrunable() bool {
	return (d.Agg == attr.Sum || d.Agg == attr.Max || d.Agg == attr.Count) &&
		(d.Op == constraint.LE || d.Op == constraint.LT)
}

// Label renders the bound as a stable description, independent of the
// current bound value — the obs.PruneSet site name for candidates pruned by
// this bound, and the ExplainReport's rendering of a Jmax pruning hook.
func (d *DynamicBound) Label() string {
	return fmt.Sprintf("%v(%s.%s) %v V^k(%s)", d.Agg, d.PruneSide, d.AttrName, d.Op, d.OtherName)
}

// Reduction is the outcome of decoupling a 2-var constraint after the first
// counting iteration: 1-var pruning conditions for each side, their
// per-side tightness, and any dynamic sum bounds for iterative pruning.
type Reduction struct {
	// C1 are the pruning conditions for candidate S-sets, C2 for T-sets.
	// Both are always sound; empty means "no pruning possible" (trivially
	// true condition).
	C1, C2 []constraint.Constraint
	// TightS/TightT report whether C1/C2 prune *every* invalid candidate
	// (Definition 5's tightness, per side).
	TightS, TightT bool
	// Dynamic holds evolving sum bounds (at most one per side).
	Dynamic []*DynamicBound
}

// Constraint2 is a 2-var constraint C(S, T).
type Constraint2 interface {
	// Satisfies is the constraint-checking operation on a concrete pair.
	Satisfies(s, t itemset.Set) bool
	// Classify returns the Figure-1 classification. The S- and T-side item
	// domains are needed because the sum/avg entries assume non-negative
	// attributes.
	Classify(domS, domT itemset.Set) Class2
	// Reduce decouples the constraint given the frequent items of each
	// side (L1ˢ, L1ᵀ) — Figures 2–4. The returned conditions are sound.
	Reduce(l1S, l1T itemset.Set) Reduction
	// Sides splits the constraint into one term per variable, so a caller
	// holding many sets evaluates each term once per set instead of once per
	// pair (core.formPairs).
	Sides() Sides
	// String renders the constraint in the paper's notation.
	String() string
}

// Sides is a 2-var constraint as a relation between two per-set terms. For
// every pair, Satisfies(s, t) equals the relation applied to the S-side
// term of s and the T-side term of t, computed by the same functions
// Satisfies uses. Exactly one of the two forms is set.
type Sides struct {
	// Aggregate form AggS(s) Op AggT(t); nil for a domain constraint. An
	// aggregate undefined on its set (ok = false) satisfies nothing.
	Op         constraint.Op
	AggS, AggT func(itemset.Set) (v float64, ok bool)
	// What the aggregate terms compute: AggS(s) is AttrS.Eval(KindS, s),
	// AggT(t) is AttrT.Eval(KindT, t).
	KindS, KindT attr.Aggregate
	AttrS, AttrT attr.Numeric
	// Domain form Rel.Holds(ProjS(s), ProjT(t)).
	Rel          constraint.DomainRel
	ProjS, ProjT func(itemset.Set) attr.ValueSet
}

// ---------------------------------------------------------------------------
// 2-var domain constraints: S.A rel T.B (Figure 2)
// ---------------------------------------------------------------------------

type dom2 struct {
	rel   constraint.DomainRel
	catS  *attr.Categorical
	nameA string
	catT  *attr.Categorical
	nameB string
}

// Dom2 builds the 2-var domain constraint S.nameA rel T.nameB over the two
// sides' categorical attributes.
func Dom2(rel constraint.DomainRel, catS *attr.Categorical, nameA string, catT *attr.Categorical, nameB string) Constraint2 {
	return &dom2{rel: rel, catS: catS, nameA: nameA, catT: catT, nameB: nameB}
}

func (d *dom2) String() string {
	switch d.rel {
	case constraint.DisjointFrom:
		return fmt.Sprintf("S.%s ∩ T.%s = ∅", d.nameA, d.nameB)
	case constraint.Intersects:
		return fmt.Sprintf("S.%s ∩ T.%s ≠ ∅", d.nameA, d.nameB)
	case constraint.SubsetOf:
		return fmt.Sprintf("S.%s ⊆ T.%s", d.nameA, d.nameB)
	case constraint.NotSubsetOf:
		return fmt.Sprintf("S.%s ⊄ T.%s", d.nameA, d.nameB)
	case constraint.EqualTo:
		return fmt.Sprintf("S.%s = T.%s", d.nameA, d.nameB)
	case constraint.SupersetOf:
		return fmt.Sprintf("S.%s ⊇ T.%s", d.nameA, d.nameB)
	}
	return fmt.Sprintf("S.%s %v T.%s", d.nameA, d.rel, d.nameB)
}

func (d *dom2) Satisfies(s, t itemset.Set) bool {
	return d.rel.Holds(d.catS.SetOf(s), d.catT.SetOf(t))
}

func (d *dom2) Sides() Sides {
	return Sides{Rel: d.rel, ProjS: d.catS.SetOf, ProjT: d.catT.SetOf}
}

func (d *dom2) Classify(itemset.Set, itemset.Set) Class2 {
	// Figure 1: every 2-var domain constraint is quasi-succinct; only
	// disjointness is anti-monotone.
	return Class2{
		AntiMonotone:  d.rel == constraint.DisjointFrom,
		QuasiSuccinct: true,
	}
}

// Reduce implements Figure 2 (with the ⊇ row by symmetry with ⊆).
func (d *dom2) Reduce(l1S, l1T itemset.Set) Reduction {
	p := d.catS.SetOf(l1S) // L1ˢ.A
	q := d.catT.SetOf(l1T) // L1ᵀ.B
	switch d.rel {
	case constraint.DisjointFrom:
		// C1: L1ᵀ.B ⊄ CS.A ; C2: L1ˢ.A ⊄ CT.B (Lemmas 2, 3, Corollary 1).
		// If CS.A covered every frequent T-item's value, every frequent
		// T-set's values would land inside CS.A and no disjoint witness
		// could exist; conversely an uncovered frequent item is itself a
		// disjoint singleton witness.
		return Reduction{
			C1:     []constraint.Constraint{constraint.DoesNotCover(d.catS, d.nameA, q)},
			C2:     []constraint.Constraint{constraint.DoesNotCover(d.catT, d.nameB, p)},
			TightS: true, TightT: true,
		}
	case constraint.Intersects:
		// C1: CS.A ∩ L1ᵀ.B ≠ ∅ ; C2: CT.B ∩ L1ˢ.A ≠ ∅.
		return Reduction{
			C1:     []constraint.Constraint{constraint.Domain(constraint.Intersects, d.catS, d.nameA, q)},
			C2:     []constraint.Constraint{constraint.Domain(constraint.Intersects, d.catT, d.nameB, p)},
			TightS: true, TightT: true,
		}
	case constraint.SubsetOf:
		// C1: CS.A ⊆ L1ᵀ.B ; C2: L1ˢ.A ∩ CT.B ≠ ∅.
		//
		// C1 is sound; the paper lists it as tight, but witnessing a
		// multi-valued CS.A requires a *frequent* T-set covering all of it,
		// which single frequent items alone do not guarantee — we record
		// TightS = false and let final pair formation settle it.
		return Reduction{
			C1:     []constraint.Constraint{constraint.Domain(constraint.SubsetOf, d.catS, d.nameA, q)},
			C2:     []constraint.Constraint{constraint.Domain(constraint.Intersects, d.catT, d.nameB, p)},
			TightS: false, TightT: true,
		}
	case constraint.SupersetOf:
		// Mirror of ⊆ with the roles swapped.
		return Reduction{
			C1:     []constraint.Constraint{constraint.Domain(constraint.Intersects, d.catS, d.nameA, q)},
			C2:     []constraint.Constraint{constraint.Domain(constraint.SubsetOf, d.catT, d.nameB, p)},
			TightS: true, TightT: false,
		}
	case constraint.NotSubsetOf:
		// C1: CS ≠ ∅ (the paper's near-trivial condition; not tight — a
		// CS whose single value equals every frequent T-item's value has
		// no witness) ; C2: L1ˢ.A ⊄ CT.B (tight: an uncovered frequent
		// S-item is a singleton witness).
		return Reduction{
			C1:     nil,
			C2:     []constraint.Constraint{constraint.DoesNotCover(d.catT, d.nameB, p)},
			TightS: false, TightT: true,
		}
	case constraint.EqualTo:
		// C1: CS.A ⊆ L1ᵀ.B ; C2: CT.B ⊆ L1ˢ.A. Sound; tightness has the
		// same multi-item witness caveat as ⊆.
		return Reduction{
			C1:     []constraint.Constraint{constraint.Domain(constraint.SubsetOf, d.catS, d.nameA, q)},
			C2:     []constraint.Constraint{constraint.Domain(constraint.SubsetOf, d.catT, d.nameB, p)},
			TightS: false, TightT: false,
		}
	}
	panic(fmt.Sprintf("twovar: unknown domain relation %d", int(d.rel)))
}

// ---------------------------------------------------------------------------
// 2-var aggregation constraints: agg1(S.A) op agg2(T.B) (Figures 1, 3, 4)
// ---------------------------------------------------------------------------

type agg2 struct {
	agg1  attr.Aggregate
	numS  attr.Numeric
	nameA string
	op    constraint.Op
	agg2  attr.Aggregate
	numT  attr.Numeric
	nameB string
}

// Agg2 builds the 2-var aggregation constraint
// agg1(S.nameA) op agg2(T.nameB).
func Agg2(a1 attr.Aggregate, numS attr.Numeric, nameA string, op constraint.Op, a2 attr.Aggregate, numT attr.Numeric, nameB string) Constraint2 {
	return &agg2{agg1: a1, numS: numS, nameA: nameA, op: op, agg2: a2, numT: numT, nameB: nameB}
}

func (a *agg2) String() string {
	return fmt.Sprintf("%v(S.%s) %v %v(T.%s)", a.agg1, a.nameA, a.op, a.agg2, a.nameB)
}

func (a *agg2) Satisfies(s, t itemset.Set) bool {
	v1, ok1 := a.numS.Eval(a.agg1, s)
	v2, ok2 := a.numT.Eval(a.agg2, t)
	if !ok1 || !ok2 {
		return false
	}
	return a.op.Cmp(v1, v2)
}

func (a *agg2) Sides() Sides {
	return Sides{
		Op:    a.op,
		AggS:  func(s itemset.Set) (float64, bool) { return a.numS.Eval(a.agg1, s) },
		AggT:  func(t itemset.Set) (float64, bool) { return a.numT.Eval(a.agg2, t) },
		KindS: a.agg1, KindT: a.agg2,
		AttrS: a.numS, AttrT: a.numT,
	}
}

// nonDecreasing reports whether growing the set can only keep or raise the
// aggregate (requires non-negativity for sum).
func nonDecreasing(agg attr.Aggregate, nonNeg bool) bool {
	switch agg {
	case attr.Max, attr.Count:
		return true
	case attr.Sum:
		return nonNeg
	}
	return false
}

// nonIncreasing reports whether growing the set can only keep or lower the
// aggregate.
func nonIncreasing(agg attr.Aggregate) bool { return agg == attr.Min }

func (a *agg2) Classify(domS, domT itemset.Set) Class2 {
	nonNegS := a.numS.NonNegativeOver(domS)
	nonNegT := a.numT.NonNegativeOver(domT)
	var am bool
	switch a.op {
	case constraint.LE, constraint.LT:
		// Violation (agg1 too big for every frequent T) must persist as
		// either side grows: agg1 must only grow with S, agg2 only shrink
		// with T. Of the Figure-1 rows this selects exactly
		// max(S.A) <= min(T.B) (and sum/count <= min, not shown there).
		am = nonDecreasing(a.agg1, nonNegS) && nonIncreasing(a.agg2)
	case constraint.GE, constraint.GT:
		am = nonIncreasing(a.agg1) && nonDecreasing(a.agg2, nonNegT)
	}
	qs := (a.agg1 == attr.Min || a.agg1 == attr.Max) &&
		(a.agg2 == attr.Min || a.agg2 == attr.Max) &&
		a.op != constraint.NE
	return Class2{AntiMonotone: am, QuasiSuccinct: qs}
}

// BoundsT reports whether Reduce registers a dynamic bound that prunes T for
// c: c is agg1(S.A) op agg2(T.B) with op ≥ or >, and agg1 is count, or sum
// over an attribute non-negative on the S domain. Reduce reads
// non-negativity over L1ˢ, which needs a support pass; domS is the whole
// domain it is drawn from, and is called only for a sum form.
func BoundsT(c Constraint2, domS func() itemset.Set) bool {
	a, ok := c.(*agg2)
	if !ok || (a.op != constraint.GE && a.op != constraint.GT) {
		return false
	}
	return a.agg1 == attr.Count || a.agg1 == attr.Sum && a.numS.NonNegativeOver(domS())
}

// values of the side's frequent-item attribute projections.
type proj struct {
	min, max, sum float64
	vals          []float64
	nonNeg        bool
}

func project(num attr.Numeric, l1 itemset.Set) proj {
	p := proj{min: math.Inf(1), max: math.Inf(-1), nonNeg: true}
	for _, it := range l1 {
		v := num[it]
		p.min = math.Min(p.min, v)
		p.max = math.Max(p.max, v)
		p.sum += v
		if v < 0 {
			p.nonNeg = false
		}
	}
	p.vals = num.ValuesOver(l1)
	return p
}

// Reduce implements Figure 3 (min/max), Figure 4 (sum/avg via induced
// weaker constraints plus direct anti-monotone bounds), the "=" cases via
// achievable value sets, and registers dynamic sum bounds for Section 5.2.
func (a *agg2) Reduce(l1S, l1T itemset.Set) Reduction {
	if l1S.Empty() || l1T.Empty() {
		// No frequent items on some side: no valid pairs can exist; an
		// unsatisfiable condition on both sides is sound and tight.
		f := constraint.Card(constraint.LE, -1)
		return Reduction{C1: []constraint.Constraint{f}, C2: []constraint.Constraint{f},
			TightS: true, TightT: true}
	}
	ps := project(a.numS, l1S)
	pt := project(a.numT, l1T)

	var red Reduction
	switch a.op {
	case constraint.LE, constraint.LT:
		red.C1, red.TightS = a.leftCond(SideS, a.agg1, a.numS, a.nameA, a.op, a.agg2, pt, a.numT, a.nameB, &red)
		red.C2, red.TightT = a.leftCond(SideT, a.agg2, a.numT, a.nameB, a.op.Flip(), a.agg1, ps, a.numS, a.nameA, &red)
	case constraint.GE, constraint.GT:
		red.C1, red.TightS = a.leftCond(SideS, a.agg1, a.numS, a.nameA, a.op, a.agg2, pt, a.numT, a.nameB, &red)
		red.C2, red.TightT = a.leftCond(SideT, a.agg2, a.numT, a.nameB, a.op.Flip(), a.agg1, ps, a.numS, a.nameA, &red)
	case constraint.EQ:
		red.C1, red.TightS = a.eqCond(a.agg1, a.numS, a.nameA, a.agg2, pt)
		red.C2, red.TightT = a.eqCond(a.agg2, a.numT, a.nameB, a.agg1, ps)
	case constraint.NE:
		// Almost never falsifiable from one side; sound trivial conditions.
		red.TightS, red.TightT = false, false
	}
	return red
}

// leftCond builds the pruning condition for the variable whose aggregate
// term is aggL, for a constraint normalized as aggL(X.attrL) op aggR(Y.attrR)
// with op ∈ {LE, LT, GE, GT}. projR summarizes the other side's frequent
// items. Dynamic sum bounds are appended to red.
func (a *agg2) leftCond(side Side, aggL attr.Aggregate, numL attr.Numeric, nameL string,
	op constraint.Op, aggR attr.Aggregate, projR proj, numR attr.Numeric, nameR string,
	red *Reduction) ([]constraint.Constraint, bool) {

	upper := op == constraint.LE || op == constraint.LT
	// Sound bound on the achievable values of aggR over frequent Y-sets:
	// its sup for upper-bounding conditions, its inf for lower-bounding.
	// The condition is tight exactly when the bound is *attained* by some
	// frequent Y-set (then that set witnesses validity for every survivor):
	// min/max/avg attain both extremes on singletons; sum attains its inf
	// on the cheapest singleton but its sup only in the degenerate case
	// where all of L1 is one frequent set — hence the Jmax series.
	var bound float64
	attained := false
	switch aggR {
	case attr.Min, attr.Max, attr.Avg:
		if upper {
			bound = projR.max
		} else {
			bound = projR.min
		}
		attained = true
	case attr.Sum:
		if !projR.nonNeg {
			// With negative values neither sum(L1.B) nor min(L1.B) bounds
			// the achievable sums; no sound static condition exists.
			return nil, false
		}
		if upper {
			bound = projR.sum // the naive bound; Jmax tightens it (§5.2)
			red.Dynamic = append(red.Dynamic, &DynamicBound{
				PruneSide: side,
				Agg:       aggL,
				Attr:      numL,
				AttrName:  nameL,
				Op:        op,
				OtherAttr: numR,
				OtherName: nameR,
			})
		} else {
			bound = projR.min // cheapest non-empty frequent set: a singleton
			attained = true
		}
	case attr.Count:
		if upper {
			// No static bound on the largest frequent set size exists
			// after level 1, but the Jmax series provides one (k + Jmaxᵏ)
			// as the opposite lattice deepens.
			red.Dynamic = append(red.Dynamic, &DynamicBound{
				Kind:      BoundCount,
				PruneSide: side,
				Agg:       aggL,
				Attr:      numL,
				AttrName:  nameL,
				Op:        op,
				OtherAttr: numR,
				OtherName: nameR,
			})
			return nil, false
		}
		bound = 1
		attained = true
	default:
		return nil, false
	}
	return []constraint.Constraint{constraint.Agg(aggL, numL, nameL, op, bound)}, attained
}

// eqCond builds the pruning condition for an "=" constraint: the achievable
// value set of min/max over frequent sets is exactly the frequent items'
// values, so aggL(X) must land in it; sum/avg on the other side fall back
// to the sound interval bounds.
func (a *agg2) eqCond(aggL attr.Aggregate, numL attr.Numeric, nameL string,
	aggR attr.Aggregate, projR proj) ([]constraint.Constraint, bool) {
	switch aggR {
	case attr.Min, attr.Max:
		// The achievable min/max values over frequent sets are exactly the
		// frequent items' values (singletons attain each), so membership
		// is sound and tight regardless of aggL.
		c := constraint.AggInSet(aggL, numL, nameL, projR.vals)
		return []constraint.Constraint{c}, true
	case attr.Avg:
		return []constraint.Constraint{
			constraint.Agg(aggL, numL, nameL, constraint.GE, projR.min),
			constraint.Agg(aggL, numL, nameL, constraint.LE, projR.max),
		}, false
	case attr.Sum:
		if !projR.nonNeg {
			return nil, false
		}
		return []constraint.Constraint{
			constraint.Agg(aggL, numL, nameL, constraint.GE, projR.min),
			constraint.Agg(aggL, numL, nameL, constraint.LE, projR.sum),
		}, false
	}
	return nil, false
}
