package twovar

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/txdb"
)

// world is a small two-sided mining universe for exhaustive oracle checks.
type world struct {
	db         *txdb.DB
	domS, domT itemset.Set
	numS, numT attr.Numeric
	catS, catT *attr.Categorical
}

// newWorld builds a random world: items 0..n-1, S ranges over the even
// ranks and T over the odd ranks half the time, otherwise both range over
// everything.
func newWorld(r *rand.Rand, n, numTx int) *world {
	txs := make([]itemset.Set, numTx)
	for i := range txs {
		m := r.Intn(6)
		items := make([]itemset.Item, m)
		for j := range items {
			items[j] = itemset.Item(r.Intn(n))
		}
		txs[i] = itemset.New(items...)
	}
	num := make(attr.Numeric, n)
	vals := make([]int32, n)
	for i := 0; i < n; i++ {
		num[i] = float64(r.Intn(10))
		vals[i] = int32(r.Intn(4))
	}
	cat := &attr.Categorical{Values: vals, Labels: []string{"a", "b", "c", "d"}}
	all := make([]itemset.Item, n)
	for i := range all {
		all[i] = itemset.Item(i)
	}
	w := &world{
		db:   txdb.New(txs),
		domS: itemset.FromSorted(all),
		domT: itemset.FromSorted(all),
		numS: num, numT: num,
		catS: cat, catT: cat,
	}
	if r.Intn(2) == 0 {
		var s, t []itemset.Item
		for i := 0; i < n; i++ {
			if i%2 == 0 {
				s = append(s, itemset.Item(i))
			} else {
				t = append(t, itemset.Item(i))
			}
		}
		w.domS, w.domT = itemset.New(s...), itemset.New(t...)
	}
	return w
}

// frequentSets enumerates the frequent non-empty subsets of a domain.
func frequentSets(db *txdb.DB, minSup int, domain itemset.Set) []itemset.Set {
	var out []itemset.Set
	domain.ForEachSubset(func(s itemset.Set) bool {
		if db.Support(s) >= minSup {
			out = append(out, s.Clone())
		}
		return true
	})
	return out
}

// frequentItems returns L1 for a domain.
func frequentItems(db *txdb.DB, minSup int, domain itemset.Set) itemset.Set {
	var out []itemset.Item
	for _, it := range domain {
		if db.Support(itemset.New(it)) >= minSup {
			out = append(out, it)
		}
	}
	return itemset.New(out...)
}

// validS reports whether s0 is a valid S-set: some frequent T-set pairs
// with it (Definition 3).
func validS(c Constraint2, s0 itemset.Set, freqT []itemset.Set) bool {
	for _, t := range freqT {
		if c.Satisfies(s0, t) {
			return true
		}
	}
	return false
}

func validT(c Constraint2, t0 itemset.Set, freqS []itemset.Set) bool {
	for _, s := range freqS {
		if c.Satisfies(s, t0) {
			return true
		}
	}
	return false
}

func passesAll(cs []constraint.Constraint, s itemset.Set) bool {
	for _, c := range cs {
		if !c.Satisfies(s) {
			return false
		}
	}
	return true
}

// checkReduction verifies soundness of C1/C2 on every candidate subset,
// and tightness where the reduction claims it.
func checkReduction(t *testing.T, w *world, c Constraint2, minSup int) {
	t.Helper()
	l1S := frequentItems(w.db, minSup, w.domS)
	l1T := frequentItems(w.db, minSup, w.domT)
	red := c.Reduce(l1S, l1T)
	freqS := frequentSets(w.db, minSup, w.domS)
	freqT := frequentSets(w.db, minSup, w.domT)

	w.domS.ForEachSubset(func(s0 itemset.Set) bool {
		valid := validS(c, s0, freqT)
		pass := passesAll(red.C1, s0)
		if valid && !pass {
			t.Errorf("%v: C1 unsound: prunes valid S-set %v", c, s0)
			return false
		}
		if red.TightS && pass && !valid {
			t.Errorf("%v: C1 claimed tight but %v passes yet is invalid", c, s0)
			return false
		}
		return true
	})
	w.domT.ForEachSubset(func(t0 itemset.Set) bool {
		valid := validT(c, t0, freqS)
		pass := passesAll(red.C2, t0)
		if valid && !pass {
			t.Errorf("%v: C2 unsound: prunes valid T-set %v", c, t0)
			return false
		}
		if red.TightT && pass && !valid {
			t.Errorf("%v: C2 claimed tight but %v passes yet is invalid", c, t0)
			return false
		}
		return true
	})
}

// checkAntiMonotone verifies Definition 4's consequence for constraints
// claiming anti-monotonicity: an S-set invalid against every frequent T-set
// has no valid superset (and symmetrically for T).
func checkAntiMonotone(t *testing.T, w *world, c Constraint2, minSup int) {
	t.Helper()
	freqS := frequentSets(w.db, minSup, w.domS)
	freqT := frequentSets(w.db, minSup, w.domT)
	var invalid []itemset.Set
	w.domS.ForEachSubset(func(s0 itemset.Set) bool {
		if !validS(c, s0, freqT) {
			invalid = append(invalid, s0.Clone())
		}
		return true
	})
	for _, s0 := range invalid {
		w.domS.ForEachSubset(func(sup itemset.Set) bool {
			if sup.Len() > s0.Len() && sup.ContainsAll(s0) && validS(c, sup, freqT) {
				t.Errorf("%v: claimed anti-monotone, but invalid %v has valid superset %v", c, s0, sup)
				return false
			}
			return true
		})
	}
	invalid = invalid[:0]
	w.domT.ForEachSubset(func(t0 itemset.Set) bool {
		if !validT(c, t0, freqS) {
			invalid = append(invalid, t0.Clone())
		}
		return true
	})
	for _, t0 := range invalid {
		w.domT.ForEachSubset(func(sup itemset.Set) bool {
			if sup.Len() > t0.Len() && sup.ContainsAll(t0) && validT(c, sup, freqS) {
				t.Errorf("%v: claimed anti-monotone, but invalid T %v has valid superset %v", c, t0, sup)
				return false
			}
			return true
		})
	}
}

// TestFigure1Classification is the golden test for the paper's Figure 1.
func TestFigure1Classification(t *testing.T) {
	num := attr.Numeric{1}
	cat := &attr.Categorical{Values: []int32{0}, Labels: []string{"a"}}
	rows := []struct {
		c       Constraint2
		am, qs  bool
		display string
	}{
		{Dom2(constraint.DisjointFrom, cat, "A", cat, "B"), true, true, "S.A ∩ T.B = ∅"},
		{Dom2(constraint.Intersects, cat, "A", cat, "B"), false, true, "S.A ∩ T.B ≠ ∅"},
		{Dom2(constraint.SubsetOf, cat, "A", cat, "B"), false, true, "S.A ⊆ T.B"},
		{Dom2(constraint.NotSubsetOf, cat, "A", cat, "B"), false, true, "S.A ⊄ T.B"},
		{Dom2(constraint.EqualTo, cat, "A", cat, "B"), false, true, "S.A = T.B"},
		{Agg2(attr.Max, num, "A", constraint.LE, attr.Min, num, "B"), true, true, "max(S.A) <= min(T.B)"},
		{Agg2(attr.Min, num, "A", constraint.LE, attr.Min, num, "B"), false, true, "min(S.A) <= min(T.B)"},
		{Agg2(attr.Max, num, "A", constraint.LE, attr.Max, num, "B"), false, true, "max(S.A) <= max(T.B)"},
		{Agg2(attr.Min, num, "A", constraint.LE, attr.Max, num, "B"), false, true, "min(S.A) <= max(T.B)"},
		{Agg2(attr.Sum, num, "A", constraint.LE, attr.Max, num, "B"), false, false, "sum(S.A) <= max(T.B)"},
		{Agg2(attr.Sum, num, "A", constraint.LE, attr.Sum, num, "B"), false, false, "sum(S.A) <= sum(T.B)"},
		{Agg2(attr.Avg, num, "A", constraint.LE, attr.Avg, num, "B"), false, false, "avg(S.A) <= avg(T.B)"},
	}
	dom := itemset.New(0)
	for _, row := range rows {
		cl := row.c.Classify(dom, dom)
		if cl.AntiMonotone != row.am {
			t.Errorf("%s: AntiMonotone = %v, want %v", row.display, cl.AntiMonotone, row.am)
		}
		if cl.QuasiSuccinct != row.qs {
			t.Errorf("%s: QuasiSuccinct = %v, want %v", row.display, cl.QuasiSuccinct, row.qs)
		}
		if row.c.String() == "" {
			t.Errorf("%s: empty String", row.display)
		}
	}
	// The ≥ mirror of the anti-monotone row.
	if cl := Agg2(attr.Min, num, "A", constraint.GE, attr.Max, num, "B").Classify(dom, dom); !cl.AntiMonotone {
		t.Error("min(S.A) >= max(T.B) should be anti-monotone")
	}
}

// TestFigure3Reductions checks the min/max reduction formulas numerically.
func TestFigure3Reductions(t *testing.T) {
	// Items 0..3 on the S side with A = {2, 5, 8, 11}; items 4..7 on the T
	// side with B = {3, 6, 9, 12}.
	num := attr.Numeric{2, 5, 8, 11, 3, 6, 9, 12}
	l1S := itemset.New(0, 1, 2, 3)
	l1T := itemset.New(4, 5, 6, 7)
	// max(L1ᵀ.B) = 12, min(L1ˢ.A) = 2.
	rows := []struct {
		a1, a2 attr.Aggregate
		// sample S-sets expected to pass / fail C1, and T-sets for C2
		passS, failS itemset.Set
		passT, failT itemset.Set
	}{
		// min(S.A) <= min(T.B): C1: min(CS.A) <= 12; C2: min(CT.B) >= 2.
		// Every S-set has min <= 11 <= 12 → C1 passes all; C2 passes all
		// (min B = 3 >= 2). Use nil to skip fail cases.
		{attr.Min, attr.Min, itemset.New(3), nil, itemset.New(4), nil},
		// max(S.A) <= min(T.B): C1: max(CS.A) <= 12 (all pass);
		// C2: min(CT.B) >= 2 (all pass).
		{attr.Max, attr.Min, itemset.New(3), nil, itemset.New(4), nil},
	}
	for _, row := range rows {
		c := Agg2(row.a1, num, "A", constraint.LE, row.a2, num, "B")
		red := c.Reduce(l1S, l1T)
		if !red.TightS || !red.TightT {
			t.Errorf("%v: min/max reduction not marked tight", c)
		}
		for _, tc := range []struct {
			set  itemset.Set
			cs   []constraint.Constraint
			want bool
		}{
			{row.passS, red.C1, true}, {row.failS, red.C1, false},
			{row.passT, red.C2, true}, {row.failT, red.C2, false},
		} {
			if tc.set == nil {
				continue
			}
			if got := passesAll(tc.cs, tc.set); got != tc.want {
				t.Errorf("%v: set %v pass = %v, want %v", c, tc.set, got, tc.want)
			}
		}
	}

	// Numeric spot check with a tighter bound: shrink L1ᵀ to items {4, 5}
	// (B values 3, 6): for max(S.A) <= max(T.B), C1 is max(CS.A) <= 6 —
	// {2} (A=8) must fail, {1} (A=5) must pass. C2 is max(CT.B) >= 2 — all
	// T-sets pass.
	c := Agg2(attr.Max, num, "A", constraint.LE, attr.Max, num, "B")
	red := c.Reduce(l1S, itemset.New(4, 5))
	if passesAll(red.C1, itemset.New(2)) {
		t.Error("max<=max: C1 accepted set above the bound")
	}
	if !passesAll(red.C1, itemset.New(1)) {
		t.Error("max<=max: C1 rejected set below the bound")
	}
	if !passesAll(red.C2, itemset.New(4)) {
		t.Error("max<=max: C2 rejected achievable T-set")
	}
}

// TestFigure4InducedBounds checks the sum/avg reductions: direct sound
// bounds (tighter than the paper's weakened forms, see DESIGN.md) and the
// dynamic hook for sum on the right-hand side.
func TestFigure4InducedBounds(t *testing.T) {
	num := attr.Numeric{2, 5, 8, 11, 3, 6, 9, 12}
	l1S := itemset.New(0, 1, 2, 3)
	l1T := itemset.New(4, 5, 6, 7)

	// sum(S.A) <= max(T.B): C1: sum(CS.A) <= 12.
	c := Agg2(attr.Sum, num, "A", constraint.LE, attr.Max, num, "B")
	red := c.Reduce(l1S, l1T)
	if len(red.Dynamic) != 0 {
		t.Errorf("sum<=max: unexpected dynamic bounds: %d", len(red.Dynamic))
	}
	if !passesAll(red.C1, itemset.New(0, 2)) { // 2+8 = 10 <= 12
		t.Error("sum<=max: C1 rejected satisfiable set")
	}
	if passesAll(red.C1, itemset.New(2, 3)) { // 8+11 = 19 > 12
		t.Error("sum<=max: C1 accepted set above bound")
	}

	// sum(S.A) <= sum(T.B): C1: sum(CS.A) <= sum(L1ᵀ.B) = 30, dynamic on S.
	c = Agg2(attr.Sum, num, "A", constraint.LE, attr.Sum, num, "B")
	red = c.Reduce(l1S, l1T)
	if len(red.Dynamic) != 1 || red.Dynamic[0].PruneSide != SideS {
		t.Fatalf("sum<=sum: dynamic = %+v", red.Dynamic)
	}
	if !red.Dynamic[0].AntiMonotonePrunable() {
		t.Error("sum<=sum: dynamic bound should be anti-monotone prunable")
	}
	cond := red.Dynamic[0].Condition(15)
	if cond.Satisfies(itemset.New(2, 3)) { // 19 > 15
		t.Error("dynamic condition at bound 15 accepted sum 19")
	}
	if !cond.Satisfies(itemset.New(0, 1)) { // 7 <= 15
		t.Error("dynamic condition at bound 15 rejected sum 7")
	}

	// sum(S.A) >= sum(T.B): the dynamic bound must land on the T side.
	c = Agg2(attr.Sum, num, "A", constraint.GE, attr.Sum, num, "B")
	red = c.Reduce(l1S, l1T)
	if len(red.Dynamic) != 1 || red.Dynamic[0].PruneSide != SideT {
		t.Fatalf("sum>=sum: dynamic = %+v", red.Dynamic)
	}

	// avg(S.A) <= sum(T.B): dynamic avg bound is not AM-prunable.
	c = Agg2(attr.Avg, num, "A", constraint.LE, attr.Sum, num, "B")
	red = c.Reduce(l1S, l1T)
	if len(red.Dynamic) != 1 || red.Dynamic[0].AntiMonotonePrunable() {
		t.Fatalf("avg<=sum: dynamic = %+v", red.Dynamic)
	}

	// count(S) <= count(T): a count-kind dynamic bound on S, AM-prunable.
	c = Agg2(attr.Count, num, "A", constraint.LE, attr.Count, num, "B")
	red = c.Reduce(l1S, l1T)
	if len(red.Dynamic) != 1 || red.Dynamic[0].Kind != BoundCount ||
		red.Dynamic[0].PruneSide != SideS || !red.Dynamic[0].AntiMonotonePrunable() {
		t.Fatalf("count<=count: dynamic = %+v", red.Dynamic)
	}
	cond2 := red.Dynamic[0].Condition(2)
	if cond2.Satisfies(itemset.New(0, 1, 2)) || !cond2.Satisfies(itemset.New(0, 1)) {
		t.Error("count-kind condition wrong")
	}
	// The T side: count(CT) >= 1 is the attained static inf.
	if len(red.C2) != 1 || !red.C2[0].Satisfies(itemset.New(4)) {
		t.Errorf("count<=count: C2 = %v", red.C2)
	}
}

// TestQuickReductionSoundAndTight is the central property test: on random
// worlds, every reduction of every constraint form must be sound, tight
// where claimed, and anti-monotone where claimed.
func TestQuickReductionSoundAndTight(t *testing.T) {
	ops := []constraint.Op{constraint.LE, constraint.LT, constraint.GE, constraint.GT, constraint.EQ}
	aggs := []attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}
	rels := []constraint.DomainRel{
		constraint.DisjointFrom, constraint.Intersects, constraint.SubsetOf,
		constraint.NotSubsetOf, constraint.EqualTo, constraint.SupersetOf,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := newWorld(r, 8, 15+r.Intn(20))
		minSup := 1 + r.Intn(3)
		var c Constraint2
		if r.Intn(2) == 0 {
			c = Dom2(rels[r.Intn(len(rels))], w.catS, "A", w.catT, "B")
		} else {
			c = Agg2(aggs[r.Intn(len(aggs))], w.numS, "A", ops[r.Intn(len(ops))],
				aggs[r.Intn(len(aggs))], w.numT, "B")
		}
		checkReduction(t, w, c, minSup)
		if c.Classify(w.domS, w.domT).AntiMonotone {
			checkAntiMonotone(t, w, c, minSup)
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestReduceEmptyL1(t *testing.T) {
	num := attr.Numeric{1, 2}
	c := Agg2(attr.Min, num, "A", constraint.LE, attr.Min, num, "B")
	red := c.Reduce(itemset.New(), itemset.New(0))
	if passesAll(red.C1, itemset.New(0)) || passesAll(red.C2, itemset.New(1)) {
		t.Error("empty L1 should make both sides unsatisfiable")
	}
}

func TestSideString(t *testing.T) {
	if SideS.String() != "S" || SideT.String() != "T" {
		t.Error("Side.String wrong")
	}
}

func TestNegativeAttributesDisableSumBounds(t *testing.T) {
	num := attr.Numeric{-5, 3, 7, 2}
	l1 := itemset.New(0, 1, 2, 3)
	c := Agg2(attr.Min, num, "A", constraint.LE, attr.Sum, num, "B")
	red := c.Reduce(l1, l1)
	// No sound static bound exists with negative B values: C1 must be
	// empty (trivially true) and no dynamic bound registered.
	if len(red.C1) != 0 || len(red.Dynamic) != 0 {
		t.Errorf("negative sum reduction: C1=%v dynamic=%v", red.C1, red.Dynamic)
	}
	// And the classification must not claim anti-monotonicity for
	// sum-based forms over negative domains.
	c2 := Agg2(attr.Sum, num, "A", constraint.LE, attr.Min, num, "B")
	if c2.Classify(l1, l1).AntiMonotone {
		t.Error("sum<=min over negative domain claimed anti-monotone")
	}
}

// TestBoundsTMatchesReduce: over every agg(S) op agg(T) form and a
// non-negative and a signed attribute, BoundsT says yes exactly when Reduce
// registers a dynamic bound pruning T (L1ˢ being the whole S domain here).
func TestBoundsTMatchesReduce(t *testing.T) {
	aggs := []attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}
	ops := []constraint.Op{constraint.LE, constraint.LT, constraint.GE, constraint.GT, constraint.EQ, constraint.NE}
	l1 := itemset.New(0, 1, 2, 3)
	dom := func() itemset.Set { return l1 }
	for _, num := range []attr.Numeric{{2, 5, 8, 11}, {-5, 3, 7, 2}} {
		for _, a1 := range aggs {
			for _, op := range ops {
				for _, a2 := range aggs {
					c := Agg2(a1, num, "A", op, a2, num, "B")
					registered := false
					for _, d := range c.Reduce(l1, l1).Dynamic {
						registered = registered || d.PruneSide == SideT
					}
					if got := BoundsT(c, dom); got != registered {
						t.Errorf("%v over %v: BoundsT = %v, Reduce registers a T bound: %v", c, num, got, registered)
					}
				}
			}
		}
	}
	if BoundsT(Dom2(constraint.Intersects, nil, "A", nil, "B"), dom) {
		t.Error("a domain constraint registers no dynamic bound")
	}
}
