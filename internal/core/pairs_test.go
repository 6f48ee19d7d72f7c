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
// fails is charged the rejection. It returns every pair; MaxPairs keeps a
// prefix of them.
func referencePairs(cons []twovar.Constraint2, validS, validT []mine.Counted) (pairs []Pair, count, pruned int64, sites obs.Counters) {
	sites = obs.Counters{}
	names := make([]string, len(cons))
	for k, c2 := range cons {
		names[k] = "pairs:" + c2.String()
	}
	for si, s := range validS {
	nextT:
		for ti, t := range validT {
			for k, c2 := range cons {
				if !c2.Satisfies(s.Set, t.Set) {
					pruned++
					sites[names[k]]++
					continue nextT
				}
			}
			count++
			pairs = append(pairs, Pair{SI: int32(si), TI: int32(ti)})
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

// sets draws n random itemsets split over two lattice levels.
func (w *joinWorld) sets(r *rand.Rand, n int) [][]mine.Counted {
	return halves(w.draw(r, n))
}

// draw draws n random itemsets, one of them empty now and then, so an
// undefined min/max/avg shows up.
func (w *joinWorld) draw(r *rand.Rand, n int) []mine.Counted {
	out := make([]mine.Counted, n)
	for i := range out {
		items := make([]itemset.Item, r.Intn(4))
		if len(items) == 0 && r.Intn(4) != 0 {
			items = make([]itemset.Item, 1)
		}
		for k := range items {
			items[k] = itemset.Item(r.Intn(joinItems))
		}
		out[i] = mine.Counted{Set: itemset.New(items...), Support: 1 + r.Intn(9)}
	}
	return out
}

// halves splits a valid-set list over two lattice levels.
func halves(sets []mine.Counted) [][]mine.Counted {
	mid := (len(sets) + 1) / 2
	return [][]mine.Counted{sets[:mid], sets[mid:]}
}

// wordEdges are the T positions on either side of the first two bitmap
// word boundaries.
var wordEdges = []int{63, 64, 127, 128}

// wideSides draws nS S-sets and nT > 128 T-sets, so a row's bitmap spans
// three words or more, and plants rows whose leading range is known: one
// S-set per word edge whose only "=" partner is the T-set there, one S-set
// priced below every set (all of the index under "<=") and one above (none
// under "<="). Planted sets are singletons of items added to the world, so
// it must be asked for its constraints afterwards.
func (w *joinWorld) wideSides(r *rand.Rand, nS, nT int) (levelsS, levelsT [][]mine.Counted) {
	flatS, flatT := w.draw(r, nS), w.draw(r, nT)
	plant := func(v float64) mine.Counted {
		w.price, w.weight = append(w.price, v), append(w.weight, v)
		w.kind.Values = append(w.kind.Values, int32(r.Intn(3)))
		w.brand.Values = append(w.brand.Values, int32(r.Intn(3)))
		return mine.Counted{Set: itemset.New(itemset.Item(len(w.price) - 1)), Support: 1}
	}
	at := r.Perm(nS)
	for k, ti := range wordEdges {
		v := float64(100 + k)
		flatT[ti], flatS[at[k]] = plant(v), plant(v)
	}
	flatS[at[len(wordEdges)]] = plant(-100)
	flatS[at[len(wordEdges)+1]] = plant(1000)
	return halves(flatS), halves(flatT)
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
	full, wantCount, wantPruned, wantSites := referencePairs(q.Constraints2, ref.ValidS(), ref.ValidT())
	for _, maxPairs := range []int{0, 1, len(full)/2 + 1} {
		q.MaxPairs = maxPairs
		wantPairs := full
		if maxPairs > 0 && maxPairs < len(full) {
			wantPairs = full[:maxPairs]
		}
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

// TestFormPairsMatchesReferenceWide is the oracle where a row's bitmap over
// T spans several words: 60–140 S-sets against 129–320 T-sets, with the
// planted rows of wideSides (a range of one T-set at each word edge, of the
// whole index, and empty), over every form alone and in a two-term
// conjunction with another form, in both orders.
func TestFormPairsMatchesReferenceWide(t *testing.T) {
	seeds := int64(3)
	if testing.Short() {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		w := newJoinWorld(r)
		levelsS, levelsT := w.wideSides(r, 60+r.Intn(81), 129+r.Intn(192))
		forms := w.constraints2()
		for _, a := range forms {
			b := forms[r.Intn(len(forms))]
			for _, conj := range [][]twovar.Constraint2{{a}, {a, b}, {b, a}} {
				checkJoin(t, fmt.Sprintf("seed %d: %v", seed, conj), CFQ{Constraints2: conj}, levelsS, levelsT)
			}
		}
	}
}

// pricedSides builds n S-sets and n T-sets, singletons over 2n items: S-set
// i is priced i and T-set k is priced tPrice(k).
func pricedSides(n int, tPrice func(k int) float64) (price attr.Numeric, levelsS, levelsT [][]mine.Counted) {
	price = make(attr.Numeric, 2*n)
	s, t := make([]mine.Counted, n), make([]mine.Counted, n)
	for i := 0; i < n; i++ {
		price[i], price[n+i] = float64(i), tPrice(i)
		s[i] = mine.Counted{Set: itemset.New(itemset.Item(i)), Support: 1}
		t[i] = mine.Counted{Set: itemset.New(itemset.Item(n + i)), Support: 1}
	}
	return price, [][]mine.Counted{s}, [][]mine.Counted{t}
}

// denseSides prices every S-set below every T-set: max(S.Price) <=
// min(T.Price) accepts all n² pairs.
func denseSides(n int) (price attr.Numeric, levelsS, levelsT [][]mine.Counted) {
	return pricedSides(n, func(k int) float64 { return float64(n + k) })
}

// scatteredSides interleaves the T prices high and low: under max(S.Price)
// <= min(T.Price) S-set i's partners are every even T-set and the odd ones
// from i on, scattered through T's lattice order.
func scatteredSides(n int) (price attr.Numeric, levelsS, levelsT [][]mine.Counted) {
	return pricedSides(n, func(k int) float64 {
		if k%2 == 0 {
			return float64(2*n + k)
		}
		return float64(k)
	})
}

// TestMaxPairsStopsWork: a dense answer costs range lookups, not |S|·|T|
// checks. Once MaxPairs pairs are materialized the rest of the answer is
// only counted, and materializing a row costs one more range lookup and no
// test of the leading term, however scattered its partners are in T's
// lattice order.
func TestMaxPairsStopsWork(t *testing.T) {
	const n = 512
	for _, tc := range []struct {
		name     string
		sides    func(int) (attr.Numeric, [][]mine.Counted, [][]mine.Counted)
		maxPairs int
	}{
		{"dense, MaxPairs 1", denseSides, 1},
		{"scattered, MaxPairs 0", scatteredSides, 0},
	} {
		price, levelsS, levelsT := tc.sides(n)
		q := CFQ{MaxPairs: tc.maxPairs, Constraints2: []twovar.Constraint2{
			twovar.Agg2(attr.Max, price, "Price", constraint.LE, attr.Min, price, "Price")}}
		res := &Result{LevelsS: levelsS, LevelsT: levelsT}
		if err := formPairs(context.Background(), q, res, nil); err != nil {
			t.Fatal(err)
		}
		want, wantCount, _, _ := referencePairs(q.Constraints2, res.ValidS(), res.ValidT())
		if tc.maxPairs > 0 {
			want = want[:tc.maxPairs]
		}
		if res.PairCount != wantCount || !reflect.DeepEqual(res.Pairs, want) {
			t.Fatalf("%s: PairCount %d with %d pairs, want %d with %d", tc.name, res.PairCount, len(res.Pairs), wantCount, len(want))
		}
		// Per S-set one binary search over the T keys counts its partners
		// and, for a materialized row, one more marks them; no pair is tested.
		if bound := 2 * int64(n) * int64(bits.Len(n)); res.Stats.PairChecks > bound {
			t.Errorf("%s: PairChecks = %d, want <= 2·|S|·log|T| = %d", tc.name, res.Stats.PairChecks, bound)
		}
		again := &Result{LevelsS: levelsS, LevelsT: levelsT}
		if err := formPairs(context.Background(), q, again, nil); err != nil {
			t.Fatal(err)
		}
		if again.Stats.PairChecks != res.Stats.PairChecks {
			t.Errorf("%s: PairChecks %d then %d: not deterministic", tc.name, res.Stats.PairChecks, again.Stats.PairChecks)
		}
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
		// cfqd's -default-maxpairs: what explore-cold and append-requery keep.
		{"minmax/maxpairs=20", []twovar.Constraint2{minmax}, 20},
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
