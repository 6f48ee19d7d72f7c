package cap

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/txdb"
)

// world bundles a random database and attributes for oracle tests.
type world struct {
	db  *txdb.DB
	num attr.Numeric
	cat *attr.Categorical
}

func newWorld(r *rand.Rand, numItems, numTx int) *world {
	txs := make([]itemset.Set, numTx)
	for i := range txs {
		m := r.Intn(6)
		items := make([]itemset.Item, m)
		for j := range items {
			items[j] = itemset.Item(r.Intn(numItems))
		}
		txs[i] = itemset.New(items...)
	}
	num := make(attr.Numeric, numItems)
	vals := make([]int32, numItems)
	for i := 0; i < numItems; i++ {
		num[i] = float64(r.Intn(10))
		vals[i] = int32(r.Intn(4))
	}
	return &world{
		db:  txdb.New(txs),
		num: num,
		cat: &attr.Categorical{Values: vals, Labels: []string{"a", "b", "c", "d"}},
	}
}

// oracle returns the valid frequent sets by exhaustive enumeration.
func oracle(w *world, minSup int, domain itemset.Set, cs []constraint.Constraint) map[string]int {
	if domain == nil {
		domain = w.db.ActiveItems()
	}
	res := map[string]int{}
	domain.ForEachSubset(func(s itemset.Set) bool {
		sup := w.db.Support(s)
		if sup < minSup {
			return true
		}
		for _, c := range cs {
			if !c.Satisfies(s) {
				return true
			}
		}
		res[s.Key()] = sup
		return true
	})
	return res
}

func resultMap(r *Result) map[string]int {
	out := map[string]int{}
	for _, c := range r.Sets() {
		out[c.Set.Key()] = c.Support
	}
	return out
}

func mapsEqual(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// randomConstraints draws a random conjunction covering every classification
// case.
func randomConstraints(r *rand.Rand, w *world) []constraint.Constraint {
	var cs []constraint.Constraint
	n := 1 + r.Intn(3)
	ops := []constraint.Op{constraint.LE, constraint.LT, constraint.GE, constraint.GT, constraint.EQ}
	aggs := []attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}
	rels := []constraint.DomainRel{
		constraint.SubsetOf, constraint.SupersetOf, constraint.EqualTo,
		constraint.DisjointFrom, constraint.Intersects, constraint.NotSubsetOf,
	}
	for i := 0; i < n; i++ {
		switch r.Intn(4) {
		case 0:
			cs = append(cs, constraint.Agg(aggs[r.Intn(len(aggs))], w.num, "A",
				ops[r.Intn(len(ops))], float64(r.Intn(20))))
		case 1:
			lo := float64(r.Intn(8))
			cs = append(cs, constraint.NumRange(w.num, "A", lo, lo+float64(2+r.Intn(5))))
		case 2:
			var vals []int32
			for v := int32(0); v < 4; v++ {
				if r.Intn(2) == 0 {
					vals = append(vals, v)
				}
			}
			cs = append(cs, constraint.Domain(rels[r.Intn(len(rels))], w.cat, "T",
				attr.NewValueSet(vals...)))
		case 3:
			cs = append(cs, constraint.Card(ops[r.Intn(len(ops))], 1+r.Intn(4)))
		}
	}
	return cs
}

// TestCAPMatchesOracleAndBaseline is the package's central property test:
// CAP, Apriori⁺ and brute-force enumeration must agree on every random
// query.
func TestCAPMatchesOracleAndBaseline(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := newWorld(r, 7, 20+r.Intn(30))
		minSup := 1 + r.Intn(3)
		cs := randomConstraints(r, w)
		q := Query{DB: w.db, MinSupport: minSup, Constraints: cs}
		capRes, err1 := Run(context.Background(), q)
		apRes, err2 := AprioriPlus(context.Background(), q)
		if err1 != nil || err2 != nil {
			t.Logf("errors: %v %v", err1, err2)
			return false
		}
		want := oracle(w, minSup, nil, cs)
		if !mapsEqual(resultMap(capRes), want) {
			t.Logf("seed %d: CAP mismatch: constraints %v", seed, cs)
			return false
		}
		if !mapsEqual(resultMap(apRes), want) {
			t.Logf("seed %d: Apriori+ mismatch", seed)
			return false
		}
		// With universal-only pushes CAP never counts more candidates than
		// the baseline. (Existential pushes trade full subset pruning for
		// validity pruning, so the inequality need not hold there: invalid
		// subsets are never counted and cannot veto a candidate.)
		universalOnly := true
		for _, c := range cs {
			cl := c.Classify(w.db.ActiveItems())
			snf := cl.Succinct
			if snf == nil {
				snf = cl.Induced
			}
			if snf != nil && len(snf.Existential) > 0 {
				universalOnly = false
			}
		}
		if universalOnly && capRes.Stats.CandidatesCounted > apRes.Stats.CandidatesCounted {
			t.Logf("seed %d: CAP counted %d > baseline %d", seed,
				capRes.Stats.CandidatesCounted, apRes.Stats.CandidatesCounted)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestCCCConditionsForSuccinct: for purely succinct constraint sets, CAP
// must perform zero set-level constraint checks (condition (2) of
// Definition 6) and count only valid candidates.
func TestCCCConditionsForSuccinct(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 30; trial++ {
		w := newWorld(r, 7, 40)
		// Succinct-only constraint pool.
		var cs []constraint.Constraint
		switch trial % 5 {
		case 0:
			cs = append(cs, constraint.Agg(attr.Max, w.num, "A", constraint.LE, float64(3+r.Intn(6))))
		case 1:
			cs = append(cs, constraint.Agg(attr.Min, w.num, "A", constraint.LE, float64(r.Intn(6))))
		case 2:
			cs = append(cs, constraint.Domain(constraint.SubsetOf, w.cat, "T", attr.NewValueSet(0, 1, 2)))
		case 3:
			cs = append(cs, constraint.Domain(constraint.Intersects, w.cat, "T", attr.NewValueSet(1)))
		case 4:
			cs = append(cs,
				constraint.Agg(attr.Max, w.num, "A", constraint.LE, float64(5+r.Intn(4))),
				constraint.Agg(attr.Min, w.num, "A", constraint.LE, float64(r.Intn(5))))
		}
		res, err := Run(context.Background(), Query{DB: w.db, MinSupport: 2, Constraints: cs})
		if err != nil {
			t.Fatal(err)
		}
		if res.Stats.SetConstraintChecks != 0 {
			t.Errorf("trial %d (%v): %d set-level checks, want 0",
				trial, cs, res.Stats.SetConstraintChecks)
		}
		// Item-level checks are bounded by |domain| per pushed predicate
		// (universal pass + existential class construction).
		bound := int64(2 * len(cs) * w.db.NumItems())
		if res.Stats.ItemConstraintChecks > bound {
			t.Errorf("trial %d: %d item checks > bound %d",
				trial, res.Stats.ItemConstraintChecks, bound)
		}
		// Correctness against the oracle.
		if !mapsEqual(resultMap(res), oracle(w, 2, nil, cs)) {
			t.Errorf("trial %d: wrong result for %v", trial, cs)
		}
	}
}

// TestAprioriPlusNotCCCOptimal: on a selective succinct query the baseline
// must burn set-level checks and count invalid candidates, while CAP does
// neither.
func TestAprioriPlusNotCCCOptimal(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	w := newWorld(r, 8, 60)
	cs := []constraint.Constraint{
		constraint.Agg(attr.Max, w.num, "A", constraint.LE, 4),
	}
	q := Query{DB: w.db, MinSupport: 2, Constraints: cs}
	capRes, _ := Run(context.Background(), q)
	apRes, _ := AprioriPlus(context.Background(), q)
	if apRes.Stats.SetConstraintChecks == 0 {
		t.Error("baseline performed no set-level checks (query too trivial)")
	}
	if capRes.Stats.SetConstraintChecks != 0 {
		t.Errorf("CAP performed %d set-level checks", capRes.Stats.SetConstraintChecks)
	}
	if capRes.Stats.CandidatesCounted >= apRes.Stats.CandidatesCounted {
		t.Errorf("CAP counted %d, baseline %d — no pruning",
			capRes.Stats.CandidatesCounted, apRes.Stats.CandidatesCounted)
	}
}

func TestUnsatisfiableExistential(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	w := newWorld(r, 6, 30)
	// No item has attribute value above 100: min(S.A) >= … fine, use an
	// existential that is empty — max(S.A) >= 100.
	cs := []constraint.Constraint{
		constraint.Agg(attr.Max, w.num, "A", constraint.GE, 100),
	}
	res, err := Run(context.Background(), Query{DB: w.db, MinSupport: 2, Constraints: cs})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 0 {
		t.Errorf("unsatisfiable query returned %d sets", res.Count())
	}
	// L1 must still be available for 2-var reduction constants.
	if res.FrequentItems.Empty() {
		t.Error("FrequentItems empty on unsatisfiable existential")
	}
}

func TestDomainRestrictionAndMaxLevel(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	w := newWorld(r, 8, 50)
	domain := itemset.New(0, 1, 2, 3)
	cs := []constraint.Constraint{constraint.Agg(attr.Min, w.num, "A", constraint.GE, 2)}
	res, err := Run(context.Background(), Query{DB: w.db, MinSupport: 2, Domain: domain, Constraints: cs, MaxLevel: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Sets() {
		if c.Set.Len() > 2 {
			t.Errorf("MaxLevel violated: %v", c.Set)
		}
		if !domain.ContainsAll(c.Set) {
			t.Errorf("domain violated: %v", c.Set)
		}
	}
	want := oracle(w, 2, domain, cs)
	for k := range resultMap(res) {
		if _, ok := want[k]; !ok {
			t.Errorf("spurious set in restricted run")
		}
	}
}

func TestNilDB(t *testing.T) {
	if _, err := Run(context.Background(), Query{}); err == nil {
		t.Error("Run with nil DB accepted")
	}
	if _, err := AprioriPlus(context.Background(), Query{}); err == nil {
		t.Error("AprioriPlus with nil DB accepted")
	}
}

func TestExtraFilterAndLevels(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	w := newWorld(r, 7, 40)
	sumOK := func(s itemset.Set) bool {
		v, _ := w.num.Eval(attr.Sum, s)
		return v <= 12
	}
	res, err := Run(context.Background(), Query{
		DB: w.db, MinSupport: 2,
		ExtraChecks: func(int) []mine.Check {
			return []mine.Check{{Cond: constraint.Agg(attr.Sum, w.num, "A", constraint.LE, 12)}}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Sets() {
		if !sumOK(c.Set) {
			t.Errorf("ExtraChecks leaked %v", c.Set)
		}
	}
	// Levels groups the filtered sets by cardinality, level 1 first.
	if len(res.Levels) == 0 || len(res.Levels[0]) == 0 {
		t.Fatalf("no level 1: %v", res.Levels)
	}
	for i, lv := range res.Levels {
		for _, c := range lv {
			if c.Set.Len() != i+1 {
				t.Errorf("level %d holds %v", i+1, c.Set)
			}
		}
	}
	// Equivalence with pushing the same bound as a constraint.
	res2, _ := Run(context.Background(), Query{
		DB: w.db, MinSupport: 2,
		Constraints: []constraint.Constraint{
			constraint.Agg(attr.Sum, w.num, "A", constraint.LE, 12),
		},
	})
	if !mapsEqual(resultMap(res), resultMap(res2)) {
		t.Error("ExtraChecks and sum constraint disagree")
	}
}

func TestAvgConstraintInduction(t *testing.T) {
	// avg is neither AM nor succinct; CAP must still return exactly the
	// valid sets via induced pushes plus final checks.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := newWorld(r, 7, 30)
		c := constraint.Agg(attr.Avg, w.num, "A", constraint.LE, float64(2+r.Intn(6)))
		res, err := Run(context.Background(), Query{DB: w.db, MinSupport: 2, Constraints: []constraint.Constraint{c}})
		if err != nil {
			return false
		}
		return mapsEqual(resultMap(res), oracle(w, 2, nil, []constraint.Constraint{c}))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestNumRangeOneSided(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	w := newWorld(r, 8, 40)
	c := constraint.NumRange(w.num, "A", math.Inf(-1), 4)
	res, err := Run(context.Background(), Query{DB: w.db, MinSupport: 2, Constraints: []constraint.Constraint{c}})
	if err != nil {
		t.Fatal(err)
	}
	if !mapsEqual(resultMap(res), oracle(w, 2, nil, []constraint.Constraint{c})) {
		t.Error("one-sided range mismatch")
	}
	if res.Stats.SetConstraintChecks != 0 {
		t.Error("range constraint caused set-level checks")
	}
}

// TestContradictoryConjunction: the simplifier must detect an impossible
// 1-var conjunction and return an empty result while still exposing L1.
func TestContradictoryConjunction(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	w := newWorld(r, 7, 40)
	res, err := Run(context.Background(), Query{
		DB: w.db, MinSupport: 2,
		Constraints: []constraint.Constraint{
			constraint.Agg(attr.Min, w.num, "A", constraint.GE, 8),
			constraint.Agg(attr.Max, w.num, "A", constraint.LE, 2),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count() != 0 {
		t.Errorf("contradictory conjunction returned %d sets", res.Count())
	}
	if res.FrequentItems.Empty() {
		t.Error("L1 missing for contradictory conjunction")
	}
	// And almost no counting beyond level 1.
	if res.Stats.CandidatesCounted > int64(w.db.NumItems()) {
		t.Errorf("counted %d candidates for an impossible query", res.Stats.CandidatesCounted)
	}
}

// TestSimplifierMergesBeforeClassification: two mergeable bounds behave
// exactly like their tightest combination.
func TestSimplifierMergesBeforeClassification(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	w := newWorld(r, 7, 40)
	merged, err := Run(context.Background(), Query{
		DB: w.db, MinSupport: 2,
		Constraints: []constraint.Constraint{
			constraint.Agg(attr.Max, w.num, "A", constraint.LE, 8),
			constraint.Agg(attr.Max, w.num, "A", constraint.LE, 4),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(context.Background(), Query{
		DB: w.db, MinSupport: 2,
		Constraints: []constraint.Constraint{
			constraint.Agg(attr.Max, w.num, "A", constraint.LE, 4),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !mapsEqual(resultMap(merged), resultMap(single)) {
		t.Error("merged conjunction differs from tightest constraint")
	}
	if merged.Stats.ItemConstraintChecks != single.Stats.ItemConstraintChecks {
		t.Errorf("merged conjunction did extra item checks: %d vs %d",
			merged.Stats.ItemConstraintChecks, single.Stats.ItemConstraintChecks)
	}
}
