package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/attr"
	"repro/internal/constraint"
	"repro/internal/gen"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/twovar"
)

// referencePairs is the per-pair generate-and-test loop formPairs replaced,
// kept as the oracle for the join: every (S, T) pair in lattice order meets
// the constraints in query order through Satisfies, and the first one that
// fails is charged the rejection.
func referencePairs(q CFQ, validS, validT []mine.Counted) (pairs []Pair, count, pruned int64, sites obs.Counters) {
	sites = obs.Counters{}
	for si, s := range validS {
	nextT:
		for ti, t := range validT {
			for _, c2 := range q.Constraints2 {
				if !c2.Satisfies(s.Set, t.Set) {
					pruned++
					sites["pairs:"+c2.String()]++
					continue nextT
				}
			}
			count++
			if q.MaxPairs == 0 || len(pairs) < q.MaxPairs {
				pairs = append(pairs, Pair{SI: int32(si), TI: int32(ti)})
			}
		}
	}
	return pairs, count, pruned, sites
}

// joinWorld is an item domain whose attributes carry what the join must get
// right: duplicate values (ties on every boundary), negatives and a NaN.
type joinWorld struct {
	price, weight attr.Numeric
	kind, brand   *attr.Categorical
}

const joinItems = 10

func newJoinWorld(r *rand.Rand) *joinWorld {
	w := &joinWorld{
		price:  make(attr.Numeric, joinItems),
		weight: make(attr.Numeric, joinItems),
		kind:   &attr.Categorical{Values: make([]int32, joinItems), Labels: []string{"a", "b", "c"}},
		brand:  &attr.Categorical{Values: make([]int32, joinItems), Labels: []string{"a", "b", "c"}},
	}
	for i := 0; i < joinItems; i++ {
		w.price[i] = float64(r.Intn(5))
		w.weight[i] = float64(r.Intn(7) - 3)
		w.kind.Values[i] = int32(r.Intn(3))
		w.brand.Values[i] = int32(r.Intn(3))
	}
	w.weight[r.Intn(joinItems)] = math.NaN()
	return w
}

// sets draws n random itemsets (one of them empty now and then, so an
// undefined min/max/avg shows up) split over two lattice levels.
func (w *joinWorld) sets(r *rand.Rand, n int) [][]mine.Counted {
	levels := make([][]mine.Counted, 2)
	for i := 0; i < n; i++ {
		items := make([]itemset.Item, r.Intn(4))
		if len(items) == 0 && r.Intn(4) != 0 {
			items = make([]itemset.Item, 1)
		}
		for k := range items {
			items[k] = itemset.Item(r.Intn(joinItems))
		}
		c := mine.Counted{Set: itemset.New(items...), Support: 1 + r.Intn(9)}
		levels[i*2/n] = append(levels[i*2/n], c)
	}
	return levels
}

// constraints2 lists every Constraint2 form: all aggregate pairs under the
// six operators and the six domain relations.
func (w *joinWorld) constraints2() []twovar.Constraint2 {
	aggs := []attr.Aggregate{attr.Min, attr.Max, attr.Sum, attr.Avg, attr.Count}
	ops := []constraint.Op{constraint.LE, constraint.LT, constraint.GE, constraint.GT, constraint.EQ, constraint.NE}
	var out []twovar.Constraint2
	for _, a1 := range aggs {
		for _, a2 := range aggs {
			for _, op := range ops {
				// Alternate the attribute so both the tie-heavy and the
				// negative/NaN one meet every form.
				numS, nameS, numT, nameT := w.price, "Price", w.price, "Price"
				if len(out)%2 == 1 {
					numS, nameS = w.weight, "Weight"
				}
				if len(out)%3 == 1 {
					numT, nameT = w.weight, "Weight"
				}
				out = append(out, twovar.Agg2(a1, numS, nameS, op, a2, numT, nameT))
			}
		}
	}
	for _, rel := range []constraint.DomainRel{constraint.SubsetOf, constraint.SupersetOf, constraint.EqualTo,
		constraint.DisjointFrom, constraint.Intersects, constraint.NotSubsetOf} {
		out = append(out, twovar.Dom2(rel, w.kind, "Kind", w.brand, "Brand"))
	}
	return out
}

func checkJoin(t *testing.T, label string, q CFQ, levelsS, levelsT [][]mine.Counted) {
	t.Helper()
	ref := &Result{LevelsS: levelsS, LevelsT: levelsT}
	full, _, _, _ := referencePairs(CFQ{Constraints2: q.Constraints2}, ref.ValidS(), ref.ValidT())
	for _, maxPairs := range []int{0, 1, len(full)/2 + 1} {
		q.MaxPairs = maxPairs
		wantPairs, wantCount, wantPruned, wantSites := referencePairs(q, ref.ValidS(), ref.ValidT())
		res := &Result{LevelsS: levelsS, LevelsT: levelsT}
		prune := obs.NewPruneSet()
		if err := formPairs(context.Background(), q, res, prune); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !reflect.DeepEqual(res.Pairs, wantPairs) {
			t.Errorf("%s MaxPairs=%d: pair sequence differs: got %d pairs, want %d", label, maxPairs, len(res.Pairs), len(wantPairs))
		}
		if res.PairCount != wantCount {
			t.Errorf("%s MaxPairs=%d: PairCount %d, want %d", label, maxPairs, res.PairCount, wantCount)
		}
		if res.Stats.CandidatesPruned != wantPruned {
			t.Errorf("%s MaxPairs=%d: CandidatesPruned %d, want %d", label, maxPairs, res.Stats.CandidatesPruned, wantPruned)
		}
		if got := prune.Snapshot(); !reflect.DeepEqual(got, wantSites) {
			t.Errorf("%s MaxPairs=%d: prune sites %v, want %v", label, maxPairs, got, wantSites)
		}
	}
}

// TestFormPairsMatchesReference is the pair-formation cell of the oracle:
// over random valid-set lists and every Constraint2 form, alone and in
// conjunctions of two and three in both orders, the join returns the
// reference loop's pair sequence, PairCount, CandidatesPruned and per-site
// charges.
func TestFormPairsMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := newJoinWorld(r)
		nS, nT := 1+r.Intn(14), 1+r.Intn(14)
		switch seed {
		case 1:
			nS = 0
		case 2:
			nT = 0
		}
		levelsS, levelsT := w.sets(r, nS), w.sets(r, nT)
		forms := w.constraints2()
		for _, c2 := range forms {
			checkJoin(t, fmt.Sprintf("seed %d: %v", seed, c2), CFQ{Constraints2: []twovar.Constraint2{c2}}, levelsS, levelsT)
		}
		for k := 0; k < 60; k++ {
			a, b, c := forms[r.Intn(len(forms))], forms[r.Intn(len(forms))], forms[r.Intn(len(forms))]
			for _, conj := range [][]twovar.Constraint2{{a, b}, {b, a}, {a, b, c}, {c, b, a}} {
				checkJoin(t, fmt.Sprintf("seed %d: %v", seed, conj), CFQ{Constraints2: conj}, levelsS, levelsT)
			}
		}
	}
}

// denseSides builds n S-sets and n T-sets over 2n items priced so that
// every S-set is cheaper than every T-set: max(S.Price) <= min(T.Price)
// accepts all n² pairs.
func denseSides(n int) (price attr.Numeric, levelsS, levelsT [][]mine.Counted) {
	price = make(attr.Numeric, 2*n)
	s, t := make([]mine.Counted, n), make([]mine.Counted, n)
	for i := 0; i < n; i++ {
		price[i], price[n+i] = float64(i), float64(n+i)
		s[i] = mine.Counted{Set: itemset.New(itemset.Item(i)), Support: 1}
		t[i] = mine.Counted{Set: itemset.New(itemset.Item(n + i)), Support: 1}
	}
	return price, [][]mine.Counted{s}, [][]mine.Counted{t}
}

// TestMaxPairsStopsWork: once MaxPairs pairs are materialized the rest of
// the answer is only counted, so a dense answer costs range lookups, not
// |S|·|T| checks.
func TestMaxPairsStopsWork(t *testing.T) {
	const n = 512
	price, levelsS, levelsT := denseSides(n)
	q := CFQ{MaxPairs: 1, Constraints2: []twovar.Constraint2{
		twovar.Agg2(attr.Max, price, "Price", constraint.LE, attr.Min, price, "Price")}}
	res := &Result{LevelsS: levelsS, LevelsT: levelsT}
	if err := formPairs(context.Background(), q, res, nil); err != nil {
		t.Fatal(err)
	}
	if res.PairCount != n*n || len(res.Pairs) != 1 {
		t.Fatalf("PairCount %d with %d pairs, want %d with 1", res.PairCount, len(res.Pairs), n*n)
	}
	// One binary search over the T keys per S-set, plus the one test that
	// finds the materialized pair.
	if bound := int64(2*n) * int64(bits.Len(n)); res.Stats.PairChecks > bound {
		t.Errorf("PairChecks = %d, want <= (|S|+|T|)·log|T| = %d", res.Stats.PairChecks, bound)
	}
	again := &Result{LevelsS: levelsS, LevelsT: levelsT}
	if err := formPairs(context.Background(), q, again, nil); err != nil {
		t.Fatal(err)
	}
	if again.Stats.PairChecks != res.Stats.PairChecks {
		t.Errorf("PairChecks %d then %d: not deterministic", res.Stats.PairChecks, again.Stats.PairChecks)
	}
}

// cancelAfter is a context whose Err turns to Canceled after its first
// `after` polls.
type cancelAfter struct {
	context.Context
	after int
}

func (c *cancelAfter) Err() error {
	if c.after == 0 {
		return context.Canceled
	}
	c.after--
	return nil
}

// TestFormPairsCancellation: a context cancelled before or inside pair
// formation aborts it with the wrapped ctx.Err(), res holding what was
// done, its pruning still attributed site by site.
func TestFormPairsCancellation(t *testing.T) {
	const n = 512
	price, levelsS, levelsT := denseSides(n)
	lead := twovar.Agg2(attr.Max, price, "Price", constraint.LE, attr.Min, price, "Price")
	// A residual constraint that rejects a third of the pairs.
	mod3 := make(attr.Numeric, 2*n)
	for i := range mod3 {
		mod3[i] = float64(i % 3)
	}
	odd := twovar.Agg2(attr.Max, mod3, "Mod3", constraint.NE, attr.Max, mod3, "Mod3")
	for _, tc := range []struct {
		name       string
		cons       []twovar.Constraint2
		after      int
		countDone  bool // the abort fell after the counting pass
		wantSomeOf bool // some but not all pairs were materialized
	}{
		{"before, with constraints", []twovar.Constraint2{lead}, 0, false, false},
		{"before, cross product", nil, 0, true, false},
		{"inside counting", []twovar.Constraint2{lead, odd}, 1, false, false},
		{"inside materialization", []twovar.Constraint2{lead}, 1, true, true},
	} {
		res := &Result{LevelsS: levelsS, LevelsT: levelsT}
		prune := obs.NewPruneSet()
		err := formPairs(&cancelAfter{Context: context.Background(), after: tc.after}, CFQ{Constraints2: tc.cons}, res, prune)
		if !errors.Is(err, context.Canceled) {
			t.Errorf("%s: err = %v, want a wrapped context.Canceled", tc.name, err)
			continue
		}
		if done := res.PairCount == n*n; done != tc.countDone {
			t.Errorf("%s: PairCount = %d of %d", tc.name, res.PairCount, n*n)
		}
		if some := len(res.Pairs) > 0 && len(res.Pairs) < n*n; some != tc.wantSomeOf {
			t.Errorf("%s: %d pairs materialized", tc.name, len(res.Pairs))
		}
		if prune.Total() != res.Stats.CandidatesPruned {
			t.Errorf("%s: sites sum %d, CandidatesPruned %d", tc.name, prune.Total(), res.Stats.CandidatesPruned)
		}
	}
}

// questSides mines the dense Quest fixture (the served benchmark's: 4000
// transactions, 80 patterns, uniform prices, 1 % support) and returns the
// sides of the query range(S.Price, 400, 1000) & range(T.Price, 0, 700).
func questSides(b *testing.B) (price attr.Numeric, kind *attr.Categorical, levelsS, levelsT [][]mine.Counted) {
	p := gen.Default(1)
	p.NumTransactions, p.NumPatterns, p.Seed = 4000, 80, 1
	db, err := gen.Quest(p)
	if err != nil {
		b.Fatal(err)
	}
	price = gen.UniformPrices(p.NumItems, 0, 1000, 2)
	values, labels := gen.UniformTypes(p.NumItems, 8, 3)
	res, err := Run(context.Background(), CFQ{
		DB: db, MinSupportS: 40, MinSupportT: 40,
		ConstraintsS: []constraint.Constraint{constraint.Agg(attr.Min, price, "Price", constraint.GE, 400)},
		ConstraintsT: []constraint.Constraint{constraint.Agg(attr.Max, price, "Price", constraint.LE, 700)},
	}, StrategyCAPOnly)
	if err != nil {
		b.Fatal(err)
	}
	return price, &attr.Categorical{Values: values, Labels: labels}, res.LevelsS, res.LevelsT
}

var benchPairs *Result

func BenchmarkFormPairs(b *testing.B) {
	price, kind, levelsS, levelsT := questSides(b)
	minmax := twovar.Agg2(attr.Max, price, "Price", constraint.LE, attr.Min, price, "Price")
	for _, bc := range []struct {
		name     string
		cons     []twovar.Constraint2
		maxPairs int
	}{
		{"minmax/maxpairs=5000", []twovar.Constraint2{minmax}, 5000},
		{"minmax/maxpairs=0", []twovar.Constraint2{minmax}, 0},
		{"dom2-disjoint/maxpairs=5000", []twovar.Constraint2{twovar.Dom2(constraint.DisjointFrom, kind, "Type", kind, "Type")}, 5000},
		{"minmax+sum/maxpairs=5000", []twovar.Constraint2{minmax,
			twovar.Agg2(attr.Sum, price, "Price", constraint.LE, attr.Sum, price, "Price")}, 5000},
	} {
		b.Run(bc.name, func(b *testing.B) {
			q := CFQ{Constraints2: bc.cons, MaxPairs: bc.maxPairs}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchPairs = &Result{LevelsS: levelsS, LevelsT: levelsT}
				if err := formPairs(context.Background(), q, benchPairs, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(benchPairs.Stats.PairChecks), "checks/op")
			b.ReportMetric(float64(benchPairs.PairCount), "pairs/op")
		})
	}
}
