package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/obs"
	"repro/internal/twovar"
	"repro/internal/txdb"
)

type world struct {
	db         *txdb.DB
	domS, domT itemset.Set
	num        attr.Numeric
	cat        *attr.Categorical
}

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
	w := &world{
		db:  txdb.New(txs),
		num: num,
		cat: &attr.Categorical{Values: vals, Labels: []string{"a", "b", "c", "d"}},
	}
	all := make([]itemset.Item, n)
	for i := range all {
		all[i] = itemset.Item(i)
	}
	w.domS, w.domT = itemset.FromSorted(all), itemset.FromSorted(all)
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

// oraclePairs enumerates the full answer by brute force, honoring the
// query's own domains and MaxLevel.
func oraclePairs(w *world, q CFQ) map[string]bool {
	domS, domT := q.DomainS, q.DomainT
	if domS == nil {
		domS = w.db.ActiveItems()
	}
	if domT == nil {
		domT = w.db.ActiveItems()
	}
	collect := func(dom itemset.Set, minSup int, cons []constraint.Constraint) []itemset.Set {
		var out []itemset.Set
		dom.ForEachSubset(func(s itemset.Set) bool {
			if q.MaxLevel > 0 && s.Len() > q.MaxLevel || w.db.Support(s) < minSup {
				return true
			}
			for _, c := range cons {
				if !c.Satisfies(s) {
					return true
				}
			}
			out = append(out, s.Clone())
			return true
		})
		return out
	}
	ss := collect(domS, q.MinSupportS, q.ConstraintsS)
	ts := collect(domT, q.MinSupportT, q.ConstraintsT)
	pairs := map[string]bool{}
	for _, s := range ss {
		for _, t := range ts {
			ok := true
			for _, c2 := range q.Constraints2 {
				if !c2.Satisfies(s, t) {
					ok = false
					break
				}
			}
			if ok {
				pairs[s.Key()+"|"+t.Key()] = true
			}
		}
	}
	return pairs
}

func resultPairs(res *Result) map[string]bool {
	validS, validT := res.ValidS(), res.ValidT()
	out := map[string]bool{}
	for _, p := range res.Pairs {
		out[validS[p.SI].Set.Key()+"|"+validT[p.TI].Set.Key()] = true
	}
	return out
}

func pairsEqual(a, b map[string]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// randomCFQ draws a random query with 1-var and 2-var constraints.
func randomCFQ(r *rand.Rand, w *world) CFQ {
	q := CFQ{
		DB:          w.db,
		MinSupportS: 1 + r.Intn(3),
		MinSupportT: 1 + r.Intn(3),
		DomainS:     w.domS,
		DomainT:     w.domT,
	}
	ops := []constraint.Op{constraint.LE, constraint.LT, constraint.GE, constraint.GT, constraint.EQ}
	aggs := []attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}
	rels := []constraint.DomainRel{
		constraint.DisjointFrom, constraint.Intersects, constraint.SubsetOf,
		constraint.NotSubsetOf, constraint.EqualTo, constraint.SupersetOf,
	}
	if r.Intn(2) == 0 {
		q.ConstraintsS = append(q.ConstraintsS,
			constraint.Agg(aggs[r.Intn(len(aggs))], w.num, "A", ops[r.Intn(len(ops))], float64(r.Intn(15))))
	}
	if r.Intn(2) == 0 {
		q.ConstraintsT = append(q.ConstraintsT,
			constraint.NumRange(w.num, "A", float64(r.Intn(5)), float64(4+r.Intn(6))))
	}
	for i := 0; i < 1+r.Intn(2); i++ {
		if r.Intn(2) == 0 {
			q.Constraints2 = append(q.Constraints2,
				twovar.Dom2(rels[r.Intn(len(rels))], w.cat, "A", w.cat, "B"))
		} else {
			q.Constraints2 = append(q.Constraints2,
				twovar.Agg2(aggs[r.Intn(len(aggs))], w.num, "A", ops[r.Intn(len(ops))],
					aggs[r.Intn(len(aggs))], w.num, "B"))
		}
	}
	return q
}

// TestStrategyEquivalence is the package's central property: every strategy
// must return exactly the oracle's answer on random queries.
func TestStrategyEquivalence(t *testing.T) {
	strategies := []Strategy{
		StrategyOptimized, StrategyOptimizedNoJmax, StrategyCAPOnly,
		StrategyAprioriPlus, StrategyFM, StrategySequential,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := newWorld(r, 7, 15+r.Intn(25))
		q := randomCFQ(r, w)
		want := oraclePairs(w, q)
		for _, st := range strategies {
			res, err := Run(context.Background(), q, st)
			if err != nil {
				t.Logf("seed %d strategy %v: %v", seed, st, err)
				return false
			}
			if !pairsEqual(resultPairs(res), want) {
				t.Logf("seed %d strategy %v: got %d pairs, want %d (query 2-var: %v)",
					seed, st, len(res.Pairs), len(want), q.Constraints2)
				return false
			}
			if res.PairCount != int64(len(want)) {
				t.Logf("seed %d strategy %v: PairCount %d, want %d", seed, st, res.PairCount, len(want))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestOptimizedPrunesAgainstBaseline: a selective quasi-succinct constraint
// must make the optimized strategy count fewer candidates than Apriori⁺.
func TestOptimizedPrunesAgainstBaseline(t *testing.T) {
	// S items 0..4 with spread prices, T items 5..9 with low prices: the
	// reduced condition max(CS.Price) <= max(L1ᵀ.Price) = 4 filters the
	// expensive S items at the item level.
	var txs []itemset.Set
	for i := 0; i < 20; i++ {
		txs = append(txs, itemset.New(0, 1, 2, 3, 4, 5, 6, 7, 8, 9))
	}
	db := txdb.New(txs)
	num := attr.Numeric{1, 3, 5, 7, 9, 2, 4, 4, 2, 2}
	q := CFQ{
		DB: db, MinSupportS: 2, MinSupportT: 2,
		DomainS: itemset.New(0, 1, 2, 3, 4),
		DomainT: itemset.New(5, 6, 7, 8, 9),
		Constraints2: []twovar.Constraint2{
			twovar.Agg2(attr.Max, num, "A", constraint.LE, attr.Min, num, "B"),
		},
	}
	opt, err := Run(context.Background(), q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(context.Background(), q, StrategyAprioriPlus)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(resultPairs(opt), resultPairs(base)) {
		t.Fatal("strategies disagree")
	}
	if opt.Stats.CandidatesCounted >= base.Stats.CandidatesCounted {
		t.Errorf("optimized counted %d >= baseline %d",
			opt.Stats.CandidatesCounted, base.Stats.CandidatesCounted)
	}
}

// TestCCCOptimalityForQuasiSuccinct: for 1-var succinct + 2-var
// quasi-succinct queries whose reductions are universal, the optimized
// strategy performs zero set-level constraint checks during set computation
// (Corollary 2; pair-formation checks are counted separately).
func TestCCCOptimalityForQuasiSuccinct(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	w := newWorld(r, 10, 120)
	q := CFQ{
		DB: w.db, MinSupportS: 2, MinSupportT: 2,
		DomainS: w.domS, DomainT: w.domT,
		ConstraintsS: []constraint.Constraint{
			constraint.NumRange(w.num, "A", math.Inf(-1), 7),
		},
		ConstraintsT: []constraint.Constraint{
			constraint.NumRange(w.num, "A", 2, math.Inf(1)),
		},
		Constraints2: []twovar.Constraint2{
			twovar.Dom2(constraint.EqualTo, w.cat, "Type", w.cat, "Type"),
			twovar.Agg2(attr.Max, w.num, "A", constraint.LE, attr.Max, w.num, "B"),
		},
	}
	res, err := Run(context.Background(), q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.SetConstraintChecks != 0 {
		t.Errorf("optimized strategy burned %d set-level checks", res.Stats.SetConstraintChecks)
	}
	base, _ := Run(context.Background(), q, StrategyAprioriPlus)
	if base.Stats.SetConstraintChecks == 0 {
		t.Error("baseline performed no set-level checks (query trivial?)")
	}
	if !pairsEqual(resultPairs(res), resultPairs(base)) {
		t.Error("strategies disagree")
	}
}

// TestFMBurnsConstraintChecks: FM satisfies the counting condition but
// checks constraints exponentially often — the paper's motivation for the
// second ccc condition.
func TestFMBurnsConstraintChecks(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	w := newWorld(r, 8, 40)
	q := CFQ{
		DB: w.db, MinSupportS: 2, MinSupportT: 2,
		DomainS: w.domS, DomainT: w.domT,
		ConstraintsS: []constraint.Constraint{
			constraint.Agg(attr.Max, w.num, "A", constraint.LE, 6),
		},
	}
	fm, err := Run(context.Background(), q, StrategyFM)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Run(context.Background(), q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(resultPairs(fm), resultPairs(opt)) {
		t.Fatal("FM and optimized disagree")
	}
	// FM checks the constraint on (nearly) every subset of the S domain.
	minChecks := int64(1) << uint(w.domS.Len()-1)
	if fm.Stats.SetConstraintChecks < minChecks {
		t.Errorf("FM set checks = %d, want >= %d", fm.Stats.SetConstraintChecks, minChecks)
	}
	if opt.Stats.SetConstraintChecks != 0 {
		t.Errorf("optimized set checks = %d", opt.Stats.SetConstraintChecks)
	}
}

func TestFMDomainGuard(t *testing.T) {
	txs := make([]itemset.Set, 3)
	var items []itemset.Item
	for i := 0; i < 20; i++ {
		items = append(items, itemset.Item(i))
	}
	txs[0] = itemset.New(items...)
	txs[1] = itemset.New(items[:10]...)
	txs[2] = itemset.New(items[10:]...)
	q := CFQ{DB: txdb.New(txs), MinSupportS: 1, MinSupportT: 1}
	if _, err := Run(context.Background(), q, StrategyFM); err == nil {
		t.Error("FM accepted a 20-item domain")
	}
}

// sumSumQuery is a workload designed so the sum bound bites.
// S: 8 items of price 15 that always co-occur, so every S-subset is
// frequent. T: 8 items of price 10 that never co-occur, so only
// singletons are frequent. The naive static bound is
// sum(L1ᵀ.Price) = 80, which admits S-sets up to size 5; the Jmax
// series discovers after T's (empty) level 2 that no frequent T-set
// sums above 10, killing every S-set beyond level 2 of the dovetail.
func sumSumQuery() (CFQ, attr.Numeric) {
	var txs []itemset.Set
	for i := 0; i < 40; i++ {
		txs = append(txs, itemset.New(0, 1, 2, 3, 4, 5, 6, 7))
	}
	for it := 8; it < 16; it++ {
		for i := 0; i < 6; i++ {
			txs = append(txs, itemset.New(itemset.Item(it)))
		}
	}
	num := make(attr.Numeric, 16)
	for i := 0; i < 8; i++ {
		num[i] = 15
	}
	for i := 8; i < 16; i++ {
		num[i] = 10
	}
	return CFQ{
		DB: txdb.New(txs), MinSupportS: 5, MinSupportT: 5,
		DomainS: itemset.New(0, 1, 2, 3, 4, 5, 6, 7),
		DomainT: itemset.New(8, 9, 10, 11, 12, 13, 14, 15),
		Constraints2: []twovar.Constraint2{
			twovar.Agg2(attr.Sum, num, "Price", constraint.LE, attr.Sum, num, "Price"),
		},
	}, num
}

// TestJmaxTightensCounting: on sumSumQuery the Jmax strategy must count
// strictly fewer candidates than the ablation without iterative pruning,
// with identical answers.
func TestJmaxTightensCounting(t *testing.T) {
	q, _ := sumSumQuery()
	withJ, err := Run(context.Background(), q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	withoutJ, err := Run(context.Background(), q, StrategyOptimizedNoJmax)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(resultPairs(withJ), resultPairs(withoutJ)) {
		t.Fatal("Jmax changed the answer")
	}
	if withJ.Stats.CandidatesCounted >= withoutJ.Stats.CandidatesCounted {
		t.Errorf("Jmax counted %d >= ablation %d",
			withJ.Stats.CandidatesCounted, withoutJ.Stats.CandidatesCounted)
	}
	if len(withJ.Plan.Bounds) != 1 {
		t.Errorf("plan dynamic bounds = %v", withJ.Plan.Bounds)
	}
	// The sequential alternative (Section 5.2's discussion) has the exact
	// bound available before S mining starts, so it prunes at least as
	// hard as the dovetailed Vᵏ series — at the price of unshared scans.
	seq, err := Run(context.Background(), q, StrategySequential)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(resultPairs(seq), resultPairs(withJ)) {
		t.Fatal("sequential changed the answer")
	}
	if seq.Stats.CandidatesCounted > withJ.Stats.CandidatesCounted {
		t.Errorf("sequential counted %d > dovetailed %d",
			seq.Stats.CandidatesCounted, withJ.Stats.CandidatesCounted)
	}
}

// TestMultiBoundAttributionDeterministic: a candidate that fails several
// dynamic bounds is charged to the first in constraint order, under every
// 2-var strategy — identical runs must agree on every counter and every
// prune site. (The sequential schedule once built its filter by ranging
// over a map: a two-entry map iterates reversed about 1 time in 8.)
func TestMultiBoundAttributionDeterministic(t *testing.T) {
	q, price := sumSumQuery()
	weight := make(attr.Numeric, len(price))
	for i, p := range price {
		weight[i] = p / 5 // every S-set that breaks the Price bound breaks this one too
	}
	q.Constraints2 = append(q.Constraints2,
		twovar.Agg2(attr.Sum, weight, "Weight", constraint.LE, attr.Sum, weight, "Weight"))
	for _, st := range []Strategy{StrategyOptimized, StrategyOptimizedNoJmax, StrategySequential} {
		seen := map[string]bool{}
		for i := 0; i < 64; i++ {
			prune := obs.NewPruneSet()
			res, err := Run(obs.WithPruning(context.Background(), prune), q, st)
			if err != nil {
				t.Fatal(err)
			}
			snap := prune.Snapshot()
			if n := snap["S:jmax:sum(S.Weight) <= V^k(Weight)"]; n != 0 {
				t.Fatalf("%v: %d candidates charged to the second bound; the first rejects them all", st, n)
			}
			seen[fmt.Sprintf("%+v %v", res.Stats, snap)] = true // fmt prints maps in key order
		}
		if len(seen) != 1 {
			t.Errorf("%v: %d distinct (Stats, prune sites) over 64 identical runs", st, len(seen))
		}
	}
}

// TestCountJmaxPruning exercises the count(S) <= count(T) extension: the
// size-bound series must prune large S-sets once the T lattice proves no
// large frequent T-set can exist.
func TestCountJmaxPruning(t *testing.T) {
	// S: an 8-item clique, all subsets frequent (sizes up to 8).
	// T: items that only ever appear in pairs, so no frequent T-set
	// exceeds 2 elements — count(S) <= count(T) caps S at pairs.
	var txs []itemset.Set
	for i := 0; i < 30; i++ {
		txs = append(txs, itemset.New(0, 1, 2, 3, 4, 5, 6, 7))
	}
	for i := 0; i < 30; i++ {
		txs = append(txs, itemset.New(8, 9), itemset.New(10, 11))
	}
	db := txdb.New(txs)
	num := make(attr.Numeric, 12)
	q := CFQ{
		DB: db, MinSupportS: 5, MinSupportT: 5,
		DomainS: itemset.New(0, 1, 2, 3, 4, 5, 6, 7),
		DomainT: itemset.New(8, 9, 10, 11),
		Constraints2: []twovar.Constraint2{
			twovar.Agg2(attr.Count, num, "A", constraint.LE, attr.Count, num, "A"),
		},
	}
	opt, err := Run(context.Background(), q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(context.Background(), q, StrategyAprioriPlus)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(resultPairs(opt), resultPairs(base)) {
		t.Fatal("count constraint changed the answer")
	}
	if opt.PairCount == 0 {
		t.Fatal("workload produced no pairs")
	}
	// Every answered S-set has at most 2 items; the optimized strategy
	// must not have counted the deep S levels the baseline enumerates.
	if opt.Stats.CandidatesCounted >= base.Stats.CandidatesCounted {
		t.Errorf("count pruning ineffective: %d >= %d",
			opt.Stats.CandidatesCounted, base.Stats.CandidatesCounted)
	}
	seq, err := Run(context.Background(), q, StrategySequential)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsEqual(resultPairs(seq), resultPairs(base)) {
		t.Fatal("sequential count answer wrong")
	}
}

func TestNoTwoVarCrossProduct(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	w := newWorld(r, 7, 40)
	q := CFQ{DB: w.db, MinSupportS: 2, MinSupportT: 2, DomainS: w.domS, DomainT: w.domT}
	res, err := Run(context.Background(), q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	nS, nT := int64(len(res.ValidS())), int64(len(res.ValidT()))
	if res.PairCount != nS*nT {
		t.Errorf("PairCount = %d, want %d", res.PairCount, nS*nT)
	}
	if res.Stats.PairChecks != 0 {
		t.Errorf("cross product burned %d pair checks", res.Stats.PairChecks)
	}
	// MaxPairs truncation.
	q.MaxPairs = 3
	res, _ = Run(context.Background(), q, StrategyOptimized)
	if nS*nT > 3 && len(res.Pairs) != 3 {
		t.Errorf("MaxPairs: len = %d", len(res.Pairs))
	}
	if res.PairCount != nS*nT {
		t.Errorf("truncated PairCount = %d, want %d", res.PairCount, nS*nT)
	}
}

func TestExplainAndDescribe(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	w := newWorld(r, 7, 30)
	q := CFQ{
		DB: w.db, MinSupportS: 2, MinSupportT: 2,
		ConstraintsS: []constraint.Constraint{
			constraint.Agg(attr.Max, w.num, "A", constraint.LE, 5),
			constraint.Agg(attr.Avg, w.num, "A", constraint.GE, 2),
		},
		Constraints2: []twovar.Constraint2{
			twovar.Agg2(attr.Max, w.num, "A", constraint.LE, attr.Min, w.num, "B"),
			twovar.Agg2(attr.Sum, w.num, "A", constraint.LE, attr.Sum, w.num, "B"),
		},
	}
	rep, err := BuildExplain(q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	var oneVarS, twoVar []string
	for _, ce := range rep.Constraints {
		switch ce.Variable {
		case "S":
			oneVarS = append(oneVarS, ce.Class)
		case "S,T":
			twoVar = append(twoVar, ce.Class)
		}
	}
	if len(twoVar) != 2 || !strings.HasPrefix(twoVar[0], "quasi-succinct") ||
		!strings.HasPrefix(twoVar[1], "non-quasi-succinct") {
		t.Errorf("2-var classes: %q", twoVar)
	}
	if len(oneVarS) != 2 ||
		!strings.Contains(oneVarS[0], "succinct") ||
		!strings.Contains(oneVarS[1], "induced") {
		t.Errorf("1-var S classes: %q", oneVarS)
	}
	res, err := Run(context.Background(), q, StrategyOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Plan.Bounds) == 0 {
		t.Fatal("the non-quasi-succinct constraint registered no dynamic bound")
	}
	AnalyzeExplain(rep, res, obs.NewPruneSet())
	if len(rep.Bounds) != len(res.Plan.Bounds) || rep.Bounds[0].Bound != res.Plan.Bounds[0].Bound {
		t.Errorf("report bounds %+v, plan bounds %+v", rep.Bounds, res.Plan.Bounds)
	}
	tree := rep.Tree()
	for _, want := range []string{"strategy: optimized", "quasi-succinct", "dynamic bound"} {
		if !strings.Contains(tree, want) {
			t.Errorf("Tree missing %q:\n%s", want, tree)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Run(context.Background(), CFQ{}, StrategyOptimized); err == nil {
		t.Error("nil DB accepted")
	}
	if _, err := BuildExplain(CFQ{}, StrategyOptimized); err == nil {
		t.Error("BuildExplain nil DB accepted")
	}
	db := txdb.New([]itemset.Set{itemset.New(1)})
	if _, err := Run(context.Background(), CFQ{DB: db}, Strategy(99)); err == nil {
		t.Error("unknown strategy accepted")
	}
	for _, st := range []Strategy{StrategyOptimized, StrategyOptimizedNoJmax,
		StrategyCAPOnly, StrategyAprioriPlus, StrategyFM, StrategySequential, Strategy(42)} {
		if st.String() == "" {
			t.Error("empty strategy name")
		}
	}
}

// TestDifferentThresholds exercises asymmetric supports and domains.
func TestDifferentThresholds(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	w := newWorld(r, 8, 60)
	q := CFQ{
		DB: w.db, MinSupportS: 3, MinSupportT: 1,
		DomainS: itemset.New(0, 1, 2, 3), DomainT: itemset.New(4, 5, 6, 7),
		Constraints2: []twovar.Constraint2{
			twovar.Dom2(constraint.DisjointFrom, w.cat, "A", w.cat, "B"),
		},
	}
	want := oraclePairs(w, q)
	for _, st := range []Strategy{StrategyOptimized, StrategyAprioriPlus} {
		res, err := Run(context.Background(), q, st)
		if err != nil {
			t.Fatal(err)
		}
		if !pairsEqual(resultPairs(res), want) {
			t.Errorf("strategy %v: wrong answer", st)
		}
	}
}
