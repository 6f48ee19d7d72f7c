// Package constraint implements the 1-variable constraint language of the
// CFQ framework (Ng, Lakshmanan, Han & Pang, SIGMOD'98 — the companion
// paper this paper builds on): domain, class and SQL-style aggregation
// constraints over a single itemset variable, together with the two
// properties that drive optimization — anti-monotonicity and succinctness —
// and their complete classification.
//
// Succinctness is represented operationally as a succinct normal form
// (SNF): a universal item predicate (every member must satisfy it) plus a
// list of existential item predicates (each must be witnessed by at least
// one member). The SNF is the member generating function in disguise: the
// universal part selects the eligible item domain, the existential parts
// steer candidate generation, and together they let a levelwise algorithm
// operate generate-only rather than generate-and-test.
package constraint

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/attr"
	"repro/internal/itemset"
)

// Op is a comparison operator of the constraint language.
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

// String returns the operator's usual notation.
func (o Op) String() string {
	switch o {
	case LE:
		return "<="
	case LT:
		return "<"
	case GE:
		return ">="
	case GT:
		return ">"
	case EQ:
		return "="
	case NE:
		return "!="
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Cmp applies the operator to a pair of numbers.
func (o Op) Cmp(a, b float64) bool {
	switch o {
	case LE:
		return a <= b
	case LT:
		return a < b
	case GE:
		return a >= b
	case GT:
		return a > b
	case EQ:
		return a == b
	case NE:
		return a != b
	}
	panic(fmt.Sprintf("constraint: unknown op %d", int(o)))
}

// Flip returns the operator with its operands swapped (a Op b ⇔ b Flip(Op) a).
func (o Op) Flip() Op {
	switch o {
	case LE:
		return GE
	case LT:
		return GT
	case GE:
		return LE
	case GT:
		return LT
	}
	return o // EQ, NE are symmetric
}

// ItemPredicate is a predicate on single items; SNF components are built
// from these.
type ItemPredicate func(itemset.Item) bool

// SNF is the succinct normal form of a succinct constraint: a set S
// satisfies the constraint iff every item of S satisfies Universal (when
// non-nil) and every Existential predicate is witnessed by some item of S.
type SNF struct {
	Universal   ItemPredicate
	Existential []ItemPredicate
}

// Satisfies evaluates the SNF on a set.
func (f *SNF) Satisfies(s itemset.Set) bool {
	if f.Universal != nil {
		for _, it := range s {
			if !f.Universal(it) {
				return false
			}
		}
	}
	for _, ex := range f.Existential {
		found := false
		for _, it := range s {
			if ex(it) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Class is the optimization-relevant classification of a constraint with
// respect to a given item domain.
type Class struct {
	// AntiMonotone: violation is inherited by all supersets, so violating
	// candidates can be dropped levelwise, like the frequency constraint.
	AntiMonotone bool
	// Monotone: satisfaction is inherited by all supersets. Not usable for
	// levelwise pruning, recorded for the optimizer.
	Monotone bool
	// Succinct is the sound-and-tight SNF when the constraint is succinct,
	// nil otherwise. A constraint whose SNF is enforced structurally needs
	// no further checking.
	Succinct *SNF
	// Induced is a sound (but not tight) SNF weakening for non-succinct
	// constraints (e.g. avg(S.A) <= c induces ∃e: e.A <= c, and for
	// non-negative A, sum(S.A) <= c induces ∀e: e.A <= c). Sets pruned by
	// it are certainly invalid; survivors still need a final check.
	Induced *SNF
}

// FullyEnforced reports whether pushing the classification into the engine
// leaves nothing to re-check: succinct constraints (SNF is tight) and
// anti-monotone constraints (the levelwise filter drops exactly the
// violators) qualify.
func (c Class) FullyEnforced() bool { return c.Succinct != nil || c.AntiMonotone }

// Constraint is a 1-var constraint C(S).
type Constraint interface {
	// Satisfies is the constraint-checking operation of the paper's cost
	// model: it evaluates C on a concrete set.
	Satisfies(s itemset.Set) bool
	// Classify analyzes the constraint over the given item domain. The
	// domain matters for the sum/avg rules, which require the attribute to
	// be non-negative over the items that can occur.
	Classify(domain itemset.Set) Class
	// String renders the constraint in the paper's notation.
	String() string
}

// PairForm is a constraint as it reads on a set of two items x and y:
// Agg(x.A, y.A) Op C, where Agg is Sum (x.A + y.A), Max, Min or Count (the
// constant 2, with no attribute). A test of the form gives what Satisfies
// gives on {x, y}.
type PairForm struct {
	Agg  attr.Aggregate
	Attr attr.Numeric // nil for Count
	Op   Op
	C    float64
}

// PairFormOf reports the pair form of c: an aggregation constraint on sum,
// max or min of a numeric attribute, or a count or cardinality constraint,
// has one; every other constraint has none.
func PairFormOf(c Constraint) (PairForm, bool) {
	switch k := c.(type) {
	case *aggConstraint:
		switch k.agg {
		case attr.Sum, attr.Max, attr.Min:
			return PairForm{Agg: k.agg, Attr: k.a, Op: k.op, C: k.c}, true
		case attr.Count:
			return PairForm{Agg: attr.Count, Op: k.op, C: k.c}, true
		}
	case *cardConstraint:
		return PairForm{Agg: attr.Count, Op: k.op, C: float64(k.c)}, true
	}
	return PairForm{}, false
}

// AggBound is the test Agg(S.Attr) Op C on one aggregate of a numeric
// attribute, with Agg one of Min, Max and Sum and Op one of <=, <, >=, >
// and =: the values passing it form one interval, so in a list of sets
// sorted by the aggregate they are one run.
type AggBound struct {
	Agg  attr.Aggregate
	Attr attr.Numeric
	Op   Op
	C    float64
}

// AggBoundsOf reports c as a conjunction of aggregate bounds on one
// attribute, when it is one: a numeric range S.A ⊆ [lo, hi] is
// min(S.A) >= lo and max(S.A) <= hi, and an aggregation constraint on min,
// max or sum under an ordered operator is its own bound. A non-empty set
// satisfies c exactly when Op.Cmp holds on every bound's aggregate as
// attr.Numeric.Eval computes it (a NaN member makes min, max and sum NaN,
// which pass no bound and fail c). Every other constraint has none.
func AggBoundsOf(c Constraint) ([]AggBound, bool) {
	switch k := c.(type) {
	case *rangeConstraint:
		return []AggBound{{attr.Min, k.a, GE, k.lo}, {attr.Max, k.a, LE, k.hi}}, true
	case *aggConstraint:
		if (k.agg == attr.Min || k.agg == attr.Max || k.agg == attr.Sum) && k.op != NE {
			return []AggBound{{k.agg, k.a, k.op, k.c}}, true
		}
	}
	return nil, false
}

// ---------------------------------------------------------------------------
// Aggregation constraints: agg(S.A) op c
// ---------------------------------------------------------------------------

type aggConstraint struct {
	agg  attr.Aggregate
	a    attr.Numeric
	name string
	op   Op
	c    float64
}

// Agg builds the aggregation constraint agg(S.attrName) op c over numeric
// attribute a.
func Agg(agg attr.Aggregate, a attr.Numeric, attrName string, op Op, c float64) Constraint {
	return &aggConstraint{agg: agg, a: a, name: attrName, op: op, c: c}
}

func (k *aggConstraint) String() string {
	if k.agg == attr.Count {
		return fmt.Sprintf("count(X) %v %g", k.op, k.c)
	}
	return fmt.Sprintf("%v(X.%s) %v %g", k.agg, k.name, k.op, k.c)
}

func (k *aggConstraint) Satisfies(s itemset.Set) bool {
	v, ok := k.a.Eval(k.agg, s)
	if !ok {
		return false // min/max/avg of the empty set: undefined, fails
	}
	return k.op.Cmp(v, k.c)
}

func (k *aggConstraint) Classify(domain itemset.Set) Class {
	le := func(it itemset.Item) bool { return k.a[it] <= k.c }
	lt := func(it itemset.Item) bool { return k.a[it] < k.c }
	ge := func(it itemset.Item) bool { return k.a[it] >= k.c }
	gt := func(it itemset.Item) bool { return k.a[it] > k.c }
	eq := func(it itemset.Item) bool { return k.a[it] == k.c }

	switch k.agg {
	case attr.Min:
		// min(S.A) >= c ⇔ ∀e: e.A >= c (anti-monotone, succinct);
		// min(S.A) <= c ⇔ ∃e: e.A <= c (monotone, succinct);
		// min(S.A) = c ⇔ ∀e: e.A >= c ∧ ∃e: e.A = c (succinct only).
		switch k.op {
		case GE:
			return Class{AntiMonotone: true, Succinct: &SNF{Universal: ge}}
		case GT:
			return Class{AntiMonotone: true, Succinct: &SNF{Universal: gt}}
		case LE:
			return Class{Monotone: true, Succinct: &SNF{Existential: []ItemPredicate{le}}}
		case LT:
			return Class{Monotone: true, Succinct: &SNF{Existential: []ItemPredicate{lt}}}
		case EQ:
			return Class{Succinct: &SNF{Universal: ge, Existential: []ItemPredicate{eq}}}
		case NE:
			return Class{}
		}
	case attr.Max:
		switch k.op {
		case LE:
			return Class{AntiMonotone: true, Succinct: &SNF{Universal: le}}
		case LT:
			return Class{AntiMonotone: true, Succinct: &SNF{Universal: lt}}
		case GE:
			return Class{Monotone: true, Succinct: &SNF{Existential: []ItemPredicate{ge}}}
		case GT:
			return Class{Monotone: true, Succinct: &SNF{Existential: []ItemPredicate{gt}}}
		case EQ:
			return Class{Succinct: &SNF{Universal: le, Existential: []ItemPredicate{eq}}}
		case NE:
			return Class{}
		}
	case attr.Sum:
		// For non-negative A: sum <= c is anti-monotone (and induces the
		// sound universal e.A <= c), sum >= c is monotone. With negative
		// values neither holds.
		if !k.a.NonNegativeOver(domain) {
			return Class{}
		}
		switch k.op {
		case LE:
			return Class{AntiMonotone: true, Induced: &SNF{Universal: le}}
		case LT:
			return Class{AntiMonotone: true, Induced: &SNF{Universal: lt}}
		case GE:
			return Class{Monotone: true}
		case GT:
			return Class{Monotone: true}
		case EQ:
			return Class{Induced: &SNF{Universal: le}}
		case NE:
			return Class{}
		}
	case attr.Avg:
		// avg is neither anti-monotone nor monotone nor succinct; it
		// induces sound existential weakenings via min <= avg <= max.
		switch k.op {
		case LE, LT:
			return Class{Induced: &SNF{Existential: []ItemPredicate{le}}}
		case GE, GT:
			return Class{Induced: &SNF{Existential: []ItemPredicate{ge}}}
		case EQ:
			return Class{Induced: &SNF{Existential: []ItemPredicate{le, ge}}}
		case NE:
			return Class{}
		}
	case attr.Count:
		switch k.op {
		case LE, LT:
			return Class{AntiMonotone: true}
		case GE, GT:
			return Class{Monotone: true}
		default:
			return Class{}
		}
	}
	return Class{}
}

// Card builds the cardinality constraint count(S) op c.
func Card(op Op, c int) Constraint {
	return &cardConstraint{op: op, c: c}
}

type cardConstraint struct {
	op Op
	c  int
}

func (k *cardConstraint) String() string { return fmt.Sprintf("count(X) %v %d", k.op, k.c) }

func (k *cardConstraint) Satisfies(s itemset.Set) bool {
	return k.op.Cmp(float64(s.Len()), float64(k.c))
}

func (k *cardConstraint) Classify(itemset.Set) Class {
	switch k.op {
	case LE, LT:
		return Class{AntiMonotone: true}
	case GE, GT:
		return Class{Monotone: true}
	}
	return Class{}
}

// ---------------------------------------------------------------------------
// Numeric range constraint: S.A ⊆ [lo, hi]
// ---------------------------------------------------------------------------

type rangeConstraint struct {
	a      attr.Numeric
	name   string
	lo, hi float64
}

// NumRange builds the domain constraint S.attrName ⊆ [lo, hi]: every member
// item's attribute value lies in the closed interval. This is the paper's
// shorthand "S.Price <= 400" style of constraint (use lo = -Inf or hi = +Inf
// for one-sided ranges).
func NumRange(a attr.Numeric, attrName string, lo, hi float64) Constraint {
	return &rangeConstraint{a: a, name: attrName, lo: lo, hi: hi}
}

func (k *rangeConstraint) String() string {
	switch {
	case math.IsInf(k.lo, -1) && math.IsInf(k.hi, 1):
		return "true"
	case math.IsInf(k.lo, -1):
		return fmt.Sprintf("X.%s <= %g", k.name, k.hi)
	case math.IsInf(k.hi, 1):
		return fmt.Sprintf("X.%s >= %g", k.name, k.lo)
	}
	return fmt.Sprintf("X.%s in [%g, %g]", k.name, k.lo, k.hi)
}

func (k *rangeConstraint) pred(it itemset.Item) bool {
	v := k.a[it]
	return v >= k.lo && v <= k.hi
}

func (k *rangeConstraint) Satisfies(s itemset.Set) bool {
	for _, it := range s {
		if !k.pred(it) {
			return false
		}
	}
	return true
}

func (k *rangeConstraint) Classify(itemset.Set) Class {
	return Class{AntiMonotone: true, Succinct: &SNF{Universal: k.pred}}
}

// ---------------------------------------------------------------------------
// Categorical domain constraints: S.A {⊆, ⊇, =, ∩=∅, ∩≠∅, ⊄} V
// ---------------------------------------------------------------------------

// DomainRel is the relation of a categorical domain constraint.
type DomainRel int

// The domain-constraint relations of the CFQ language.
const (
	SubsetOf     DomainRel = iota // S.A ⊆ V
	SupersetOf                    // S.A ⊇ V
	EqualTo                       // S.A = V
	DisjointFrom                  // S.A ∩ V = ∅
	Intersects                    // S.A ∩ V ≠ ∅
	NotSubsetOf                   // S.A ⊄ V
)

// String returns the relation's notation.
func (r DomainRel) String() string {
	switch r {
	case SubsetOf:
		return "⊆"
	case SupersetOf:
		return "⊇"
	case EqualTo:
		return "="
	case DisjointFrom:
		return "∩∅"
	case Intersects:
		return "∩≠∅"
	case NotSubsetOf:
		return "⊄"
	}
	return fmt.Sprintf("DomainRel(%d)", int(r))
}

// Holds applies the relation to a pair of value sets: a r v.
func (r DomainRel) Holds(a, v attr.ValueSet) bool {
	switch r {
	case SubsetOf:
		return v.ContainsAll(a)
	case SupersetOf:
		return a.ContainsAll(v)
	case EqualTo:
		return a.Equal(v)
	case DisjointFrom:
		return !a.Intersects(v)
	case Intersects:
		return a.Intersects(v)
	case NotSubsetOf:
		return !v.ContainsAll(a)
	}
	panic(fmt.Sprintf("constraint: unknown domain relation %d", int(r)))
}

type domainConstraint struct {
	rel  DomainRel
	cat  *attr.Categorical
	name string
	v    attr.ValueSet
}

// Domain builds the domain constraint S.attrName rel v over categorical
// attribute cat.
func Domain(rel DomainRel, cat *attr.Categorical, attrName string, v attr.ValueSet) Constraint {
	return &domainConstraint{rel: rel, cat: cat, name: attrName, v: v}
}

func (k *domainConstraint) String() string {
	vals := make([]string, len(k.v))
	for i, x := range k.v {
		vals[i] = k.cat.Label(x)
	}
	return fmt.Sprintf("X.%s %v {%s}", k.name, k.rel, strings.Join(vals, ", "))
}

func (k *domainConstraint) Satisfies(s itemset.Set) bool {
	return k.rel.Holds(k.cat.SetOf(s), k.v)
}

func (k *domainConstraint) Classify(itemset.Set) Class {
	in := func(it itemset.Item) bool { return k.v.Contains(k.cat.Value(it)) }
	notIn := func(it itemset.Item) bool { return !k.v.Contains(k.cat.Value(it)) }
	// One existential witness per required value, for ⊇ and =.
	perValue := func() []ItemPredicate {
		ex := make([]ItemPredicate, len(k.v))
		for i, val := range k.v {
			val := val
			ex[i] = func(it itemset.Item) bool { return k.cat.Value(it) == val }
		}
		return ex
	}
	switch k.rel {
	case SubsetOf:
		return Class{AntiMonotone: true, Succinct: &SNF{Universal: in}}
	case DisjointFrom:
		return Class{AntiMonotone: true, Succinct: &SNF{Universal: notIn}}
	case SupersetOf:
		return Class{Monotone: true, Succinct: &SNF{Existential: perValue()}}
	case Intersects:
		return Class{Monotone: true, Succinct: &SNF{Existential: []ItemPredicate{in}}}
	case EqualTo:
		return Class{Succinct: &SNF{Universal: in, Existential: perValue()}}
	case NotSubsetOf:
		return Class{AntiMonotone: false, Monotone: true,
			Succinct: &SNF{Existential: []ItemPredicate{notIn}}}
	}
	return Class{}
}

// DistinctCount builds the constraint count(S.attrName) op c on the number
// of distinct categorical values of the set (the paper's
// count(S.Type) = 1 form).
func DistinctCount(cat *attr.Categorical, attrName string, op Op, c int) Constraint {
	return &distinctCountConstraint{cat: cat, name: attrName, op: op, c: c}
}

type distinctCountConstraint struct {
	cat  *attr.Categorical
	name string
	op   Op
	c    int
}

func (k *distinctCountConstraint) String() string {
	return fmt.Sprintf("count(X.%s) %v %d", k.name, k.op, k.c)
}

func (k *distinctCountConstraint) Satisfies(s itemset.Set) bool {
	return k.op.Cmp(float64(k.cat.DistinctCount(s)), float64(k.c))
}

func (k *distinctCountConstraint) Classify(itemset.Set) Class {
	switch k.op {
	case LE, LT:
		return Class{AntiMonotone: true}
	case GE, GT:
		return Class{Monotone: true}
	case EQ:
		if k.c == 1 {
			// count(S.Type) = 1 on non-empty sets behaves anti-monotonely
			// over the non-empty lattice: a violating set (≥ 2 types)
			// cannot shrink back to one type by growing.
			return Class{AntiMonotone: true}
		}
	}
	return Class{}
}

// ---------------------------------------------------------------------------
// Constraints produced by 2-var reductions
// ---------------------------------------------------------------------------

// AggInSet builds the constraint agg(S.A) ∈ values, which arises as the
// quasi-succinct reduction of 2-var constraints with an "=" comparison
// (agg1(S.A) = agg2(T.B) reduces to agg1(CS.A) ∈ L1ᵀ.B). It is applied as a
// set-level filter; for min/max it induces a sound existential.
func AggInSet(agg attr.Aggregate, a attr.Numeric, attrName string, values []float64) Constraint {
	set := map[float64]bool{}
	for _, v := range values {
		set[v] = true
	}
	return &aggInSetConstraint{agg: agg, a: a, name: attrName, set: set}
}

type aggInSetConstraint struct {
	agg  attr.Aggregate
	a    attr.Numeric
	name string
	set  map[float64]bool
}

func (k *aggInSetConstraint) String() string {
	return fmt.Sprintf("%v(X.%s) in L1-values(%d)", k.agg, k.name, len(k.set))
}

func (k *aggInSetConstraint) Satisfies(s itemset.Set) bool {
	v, ok := k.a.Eval(k.agg, s)
	return ok && k.set[v]
}

func (k *aggInSetConstraint) Classify(itemset.Set) Class {
	if k.agg == attr.Min || k.agg == attr.Max {
		// The witnessing extremum is itself a member, so some member's
		// value lies in the set.
		in := func(it itemset.Item) bool { return k.set[k.a[it]] }
		return Class{Induced: &SNF{Existential: []ItemPredicate{in}}}
	}
	return Class{}
}

// DoesNotCover builds the constraint "S.A does not contain all of q"
// (¬(q ⊆ S.A)), the T-side reduction of the 2-var S.A ⊄ T.B constraint
// (Figure 2 row 4: L1ˢ.A ⊄ CT.B). It is anti-monotone: growing a set can
// only add coverage.
func DoesNotCover(cat *attr.Categorical, attrName string, q attr.ValueSet) Constraint {
	return &doesNotCoverConstraint{cat: cat, name: attrName, q: q}
}

type doesNotCoverConstraint struct {
	cat  *attr.Categorical
	name string
	q    attr.ValueSet
}

func (k *doesNotCoverConstraint) String() string {
	return fmt.Sprintf("fixed(%d values) ⊄ X.%s", len(k.q), k.name)
}

func (k *doesNotCoverConstraint) Satisfies(s itemset.Set) bool {
	return !k.cat.SetOf(s).ContainsAll(k.q)
}

func (k *doesNotCoverConstraint) Classify(itemset.Set) Class {
	if len(k.q) == 0 {
		// The empty set is covered by everything: unsatisfiable.
		return Class{AntiMonotone: true}
	}
	return Class{AntiMonotone: true}
}

// True returns the trivially satisfied constraint (e.g. the S-side
// reduction of S.A ⊄ T.B, which is just CS ≠ ∅ — frequent sets are
// non-empty, so nothing to check).
func True() Constraint { return trueConstraint{} }

type trueConstraint struct{}

func (trueConstraint) String() string             { return "true" }
func (trueConstraint) Satisfies(itemset.Set) bool { return true }
func (trueConstraint) Classify(itemset.Set) Class {
	return Class{AntiMonotone: true, Monotone: true, Succinct: &SNF{}}
}
