package constraint

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/attr"
	"repro/internal/itemset"
)

// testWorld is a small item universe with one numeric and one categorical
// attribute, for exhaustive oracle checks.
type testWorld struct {
	domain itemset.Set
	num    attr.Numeric
	cat    *attr.Categorical
}

func newWorld(r *rand.Rand, n int) *testWorld {
	num := make(attr.Numeric, n)
	vals := make([]int32, n)
	for i := 0; i < n; i++ {
		num[i] = float64(r.Intn(10))
		vals[i] = int32(r.Intn(4))
	}
	items := make([]itemset.Item, n)
	for i := range items {
		items[i] = itemset.Item(i)
	}
	return &testWorld{
		domain: itemset.FromSorted(items),
		num:    num,
		cat:    &attr.Categorical{Values: vals, Labels: []string{"a", "b", "c", "d"}},
	}
}

// checkClassification exhaustively verifies every claim a Class makes about
// a constraint over the world's domain.
func checkClassification(t *testing.T, w *testWorld, c Constraint) {
	t.Helper()
	cl := c.Classify(w.domain)

	// Collect all non-empty subsets with their satisfaction.
	type entry struct {
		set itemset.Set
		sat bool
	}
	var all []entry
	w.domain.ForEachSubset(func(s itemset.Set) bool {
		all = append(all, entry{s.Clone(), c.Satisfies(s)})
		return true
	})

	if cl.Succinct != nil {
		for _, e := range all {
			if got := cl.Succinct.Satisfies(e.set); got != e.sat {
				t.Errorf("%v: SNF(%v) = %v, Satisfies = %v", c, e.set, got, e.sat)
				return
			}
		}
	}
	if cl.Induced != nil {
		for _, e := range all {
			if e.sat && !cl.Induced.Satisfies(e.set) {
				t.Errorf("%v: induced SNF prunes the valid set %v", c, e.set)
				return
			}
		}
	}
	if cl.AntiMonotone {
		for _, e := range all {
			if e.sat {
				continue
			}
			for _, f := range all {
				if f.sat && f.set.ContainsAll(e.set) && f.set.Len() > e.set.Len() {
					t.Errorf("%v claimed anti-monotone but %v violates and superset %v satisfies",
						c, e.set, f.set)
					return
				}
			}
		}
	}
	if cl.Monotone {
		for _, e := range all {
			if !e.sat {
				continue
			}
			for _, f := range all {
				if !f.sat && f.set.ContainsAll(e.set) && f.set.Len() > e.set.Len() {
					t.Errorf("%v claimed monotone but %v satisfies and superset %v violates",
						c, e.set, f.set)
					return
				}
			}
		}
	}
}

// TestClassificationTable encodes the SIGMOD'98 1-var classification
// (Lemma 1 of this paper: domain, class and min/max constraints are
// succinct; sum/avg are not) and checks each classification claim against
// the exhaustive oracle.
func TestClassificationTable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	w := newWorld(r, 7)
	v := attr.NewValueSet(0, 2)

	tests := []struct {
		c            Constraint
		antiMonotone bool
		monotone     bool
		succinct     bool
	}{
		{Agg(attr.Min, w.num, "A", GE, 5), true, false, true},
		{Agg(attr.Min, w.num, "A", GT, 5), true, false, true},
		{Agg(attr.Min, w.num, "A", LE, 5), false, true, true},
		{Agg(attr.Min, w.num, "A", LT, 5), false, true, true},
		{Agg(attr.Min, w.num, "A", EQ, 5), false, false, true},
		{Agg(attr.Min, w.num, "A", NE, 5), false, false, false},
		{Agg(attr.Max, w.num, "A", LE, 5), true, false, true},
		{Agg(attr.Max, w.num, "A", LT, 5), true, false, true},
		{Agg(attr.Max, w.num, "A", GE, 5), false, true, true},
		{Agg(attr.Max, w.num, "A", GT, 5), false, true, true},
		{Agg(attr.Max, w.num, "A", EQ, 5), false, false, true},
		{Agg(attr.Sum, w.num, "A", LE, 12), true, false, false},
		{Agg(attr.Sum, w.num, "A", LT, 12), true, false, false},
		{Agg(attr.Sum, w.num, "A", GE, 12), false, true, false},
		{Agg(attr.Avg, w.num, "A", LE, 5), false, false, false},
		{Agg(attr.Avg, w.num, "A", GE, 5), false, false, false},
		{Agg(attr.Count, w.num, "A", LE, 3), true, false, false},
		{Agg(attr.Count, w.num, "A", GE, 3), false, true, false},
		{Card(LE, 3), true, false, false},
		{Card(GE, 3), false, true, false},
		{NumRange(w.num, "A", 2, 7), true, false, true},
		{NumRange(w.num, "A", math.Inf(-1), 7), true, false, true},
		{Domain(SubsetOf, w.cat, "T", v), true, false, true},
		{Domain(DisjointFrom, w.cat, "T", v), true, false, true},
		{Domain(SupersetOf, w.cat, "T", v), false, true, true},
		{Domain(Intersects, w.cat, "T", v), false, true, true},
		{Domain(EqualTo, w.cat, "T", v), false, false, true},
		{Domain(NotSubsetOf, w.cat, "T", v), false, true, true},
		{DistinctCount(w.cat, "T", LE, 2), true, false, false},
		{DistinctCount(w.cat, "T", GE, 2), false, true, false},
		{DistinctCount(w.cat, "T", EQ, 1), true, false, false},
		{DoesNotCover(w.cat, "T", v), true, false, false},
		{True(), true, true, true},
	}
	for _, tt := range tests {
		cl := tt.c.Classify(w.domain)
		if cl.AntiMonotone != tt.antiMonotone {
			t.Errorf("%v: AntiMonotone = %v, want %v", tt.c, cl.AntiMonotone, tt.antiMonotone)
		}
		if cl.Monotone != tt.monotone {
			t.Errorf("%v: Monotone = %v, want %v", tt.c, cl.Monotone, tt.monotone)
		}
		if (cl.Succinct != nil) != tt.succinct {
			t.Errorf("%v: Succinct = %v, want %v", tt.c, cl.Succinct != nil, tt.succinct)
		}
		checkClassification(t, w, tt.c)
	}
}

// TestRandomConstraintsAgainstOracle fuzzes constraint parameters and
// re-verifies every classification claim exhaustively.
func TestRandomConstraintsAgainstOracle(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	ops := []Op{LE, LT, GE, GT, EQ, NE}
	aggs := []attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}
	rels := []DomainRel{SubsetOf, SupersetOf, EqualTo, DisjointFrom, Intersects, NotSubsetOf}
	for trial := 0; trial < 120; trial++ {
		w := newWorld(r, 6)
		var c Constraint
		switch r.Intn(6) {
		case 0:
			c = Agg(aggs[r.Intn(len(aggs))], w.num, "A", ops[r.Intn(len(ops))], float64(r.Intn(15)))
		case 1:
			lo := float64(r.Intn(8))
			c = NumRange(w.num, "A", lo, lo+float64(r.Intn(5)))
		case 2:
			var vals []int32
			for v := int32(0); v < 4; v++ {
				if r.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
			c = Domain(rels[r.Intn(len(rels))], w.cat, "T", attr.NewValueSet(vals...))
		case 3:
			c = DistinctCount(w.cat, "T", ops[r.Intn(len(ops))], 1+r.Intn(3))
		case 4:
			c = Card(ops[r.Intn(len(ops))], 1+r.Intn(4))
		case 5:
			c = AggInSet(aggs[r.Intn(len(aggs))], w.num, "A",
				[]float64{float64(r.Intn(10)), float64(r.Intn(10))})
		}
		checkClassification(t, w, c)
	}
}

// TestSumWithNegativesNotAntiMonotone: with negative attribute values the
// sum rules must be disabled.
func TestSumWithNegativesNotAntiMonotone(t *testing.T) {
	num := attr.Numeric{5, -3, 4}
	domain := itemset.New(0, 1, 2)
	c := Agg(attr.Sum, num, "A", LE, 4)
	cl := c.Classify(domain)
	if cl.AntiMonotone || cl.Monotone || cl.Succinct != nil || cl.Induced != nil {
		t.Errorf("sum over negative domain classified as %+v", cl)
	}
	// And indeed: {0} violates (5 > 4) but {0,1} satisfies (2 <= 4).
	if c.Satisfies(itemset.New(0)) {
		t.Error("unexpected: {0} satisfies")
	}
	if !c.Satisfies(itemset.New(0, 1)) {
		t.Error("unexpected: {0,1} violates")
	}
	// Restricting the domain to non-negative items re-enables the rule.
	if cl := c.Classify(itemset.New(0, 2)); !cl.AntiMonotone {
		t.Error("sum over non-negative sub-domain not anti-monotone")
	}
}

func TestEmptySetSemantics(t *testing.T) {
	num := attr.Numeric{1, 2}
	empty := itemset.New()
	if Agg(attr.Min, num, "A", LE, 5).Satisfies(empty) {
		t.Error("min constraint satisfied by empty set")
	}
	if !Agg(attr.Sum, num, "A", LE, 5).Satisfies(empty) {
		t.Error("sum(∅) <= 5 not satisfied (sum of empty is 0)")
	}
	if !Card(LE, 3).Satisfies(empty) {
		t.Error("count(∅) <= 3 not satisfied")
	}
}

func TestOpHelpers(t *testing.T) {
	cases := []struct {
		op   Op
		a, b float64
		want bool
	}{
		{LE, 1, 2, true}, {LE, 2, 2, true}, {LE, 3, 2, false},
		{LT, 1, 2, true}, {LT, 2, 2, false},
		{GE, 3, 2, true}, {GE, 2, 2, true}, {GE, 1, 2, false},
		{GT, 3, 2, true}, {GT, 2, 2, false},
		{EQ, 2, 2, true}, {EQ, 1, 2, false},
		{NE, 1, 2, true}, {NE, 2, 2, false},
	}
	for _, tt := range cases {
		if got := tt.op.Cmp(tt.a, tt.b); got != tt.want {
			t.Errorf("%v.Cmp(%g,%g) = %v", tt.op, tt.a, tt.b, got)
		}
		// Flip law: a op b == b flip(op) a.
		if got := tt.op.Flip().Cmp(tt.b, tt.a); got != tt.want {
			t.Errorf("%v.Flip() violates flip law on (%g,%g)", tt.op, tt.a, tt.b)
		}
	}
	for _, op := range []Op{LE, LT, GE, GT, EQ, NE} {
		if op.String() == "" {
			t.Errorf("empty String for op %d", int(op))
		}
	}
}

func TestStrings(t *testing.T) {
	num := attr.Numeric{1}
	cat := &attr.Categorical{Values: []int32{0}, Labels: []string{"snacks"}}
	cases := []struct {
		c    Constraint
		want string
	}{
		{Agg(attr.Sum, num, "Price", LE, 100), "sum(X.Price) <= 100"},
		{Card(GE, 2), "count(X) >= 2"},
		{NumRange(num, "Price", math.Inf(-1), 400), "X.Price <= 400"},
		{NumRange(num, "Price", 400, math.Inf(1)), "X.Price >= 400"},
		{NumRange(num, "Price", 1, 2), "X.Price in [1, 2]"},
		{Domain(SubsetOf, cat, "Type", attr.NewValueSet(0)), "X.Type ⊆ {snacks}"},
		{DistinctCount(cat, "Type", EQ, 1), "count(X.Type) = 1"},
		{True(), "true"},
	}
	for _, tt := range cases {
		if got := tt.c.String(); got != tt.want {
			t.Errorf("String = %q, want %q", got, tt.want)
		}
	}
}

func TestDoesNotCover(t *testing.T) {
	cat := &attr.Categorical{Values: []int32{0, 1, 2}, Labels: []string{"a", "b", "c"}}
	c := DoesNotCover(cat, "T", attr.NewValueSet(0, 1))
	if c.Satisfies(itemset.New(0, 1)) {
		t.Error("covering set satisfied ⊄")
	}
	if !c.Satisfies(itemset.New(0, 2)) {
		t.Error("non-covering set violated ⊄")
	}
	// Empty required value set: unsatisfiable (∅ ⊆ anything).
	e := DoesNotCover(cat, "T", attr.NewValueSet())
	if e.Satisfies(itemset.New(0)) {
		t.Error("empty cover requirement satisfied")
	}
}

func TestSNFSatisfies(t *testing.T) {
	snf := &SNF{
		Universal:   func(it itemset.Item) bool { return it < 5 },
		Existential: []ItemPredicate{func(it itemset.Item) bool { return it == 2 }},
	}
	if !snf.Satisfies(itemset.New(1, 2, 3)) {
		t.Error("valid set rejected")
	}
	if snf.Satisfies(itemset.New(1, 3)) {
		t.Error("missing witness accepted")
	}
	if snf.Satisfies(itemset.New(2, 7)) {
		t.Error("universal violation accepted")
	}
	if !(&SNF{}).Satisfies(itemset.New(1)) {
		t.Error("trivial SNF rejected a set")
	}
}

func TestFullyEnforced(t *testing.T) {
	if !(Class{Succinct: &SNF{}}).FullyEnforced() {
		t.Error("succinct class not fully enforced")
	}
	if !(Class{AntiMonotone: true}).FullyEnforced() {
		t.Error("anti-monotone class not fully enforced")
	}
	if (Class{Monotone: true}).FullyEnforced() {
		t.Error("monotone-only class fully enforced")
	}
}

// TestPairFormMatchesSatisfies: on every pair of a small world, with
// fractional and negative values and constants that land exactly on a pair's
// aggregate, a pair form read as Agg(x.A, y.A) Op C gives what Satisfies
// gives; sum, max, min and count constraints have one, the others none.
func TestPairFormMatchesSatisfies(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	ops := []Op{LE, LT, GE, GT, EQ, NE}
	aggs := []attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}
	eval := func(f PairForm, x, y itemset.Item) float64 {
		switch f.Agg {
		case attr.Sum:
			return f.Attr[x] + f.Attr[y]
		case attr.Max:
			return math.Max(f.Attr[x], f.Attr[y])
		case attr.Min:
			return math.Min(f.Attr[x], f.Attr[y])
		}
		return 2
	}
	forms := 0
	for trial := 0; trial < 400; trial++ {
		w := newWorld(r, 6)
		for i := range w.num {
			w.num[i] = float64(r.Intn(9)-3) / 4
		}
		var c Constraint
		wantForm := true
		switch r.Intn(4) {
		case 0, 1:
			agg := aggs[r.Intn(len(aggs))]
			// A constant some pair's sum reaches exactly.
			x, y := r.Intn(6), r.Intn(6)
			c = Agg(agg, w.num, "A", ops[r.Intn(len(ops))], w.num[x]+w.num[y])
			wantForm = agg != attr.Avg
		case 2:
			c = Card(ops[r.Intn(len(ops))], r.Intn(4))
		case 3:
			c = NumRange(w.num, "A", -0.5, 0.5)
			wantForm = false
		}
		f, ok := PairFormOf(c)
		if ok != wantForm {
			t.Fatalf("%v: PairFormOf ok = %v, want %v", c, ok, wantForm)
		}
		if !ok {
			continue
		}
		forms++
		for x := range w.domain {
			for y := x + 1; y < len(w.domain); y++ {
				a, b := w.domain[x], w.domain[y]
				if got, want := f.Op.Cmp(eval(f, a, b), f.C), c.Satisfies(itemset.New(a, b)); got != want {
					t.Fatalf("%v on {%d, %d}: pair form %v, Satisfies %v", c, a, b, got, want)
				}
			}
		}
	}
	if forms < 100 {
		t.Fatalf("only %d constraints had a pair form", forms)
	}
}
