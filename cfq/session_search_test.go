package cfq

import (
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/constraint"
	"repro/internal/itemset"
	"repro/internal/mine"
	"repro/internal/obs"
)

// searchDataset is a random dataset for the session search tests: items
// with integral prices (so aggregates tie), a few NaN and negative ones,
// and a categorical Type, plus a reserve of rows to append.
func searchDataset(t *testing.T, r *rand.Rand) (*Dataset, [][]int) {
	t.Helper()
	const items = 24
	ds := NewDataset(items)
	prices := make([]float64, items)
	types := make([]string, items)
	for i := range prices {
		switch x := r.Intn(20); {
		case x == 0:
			prices[i] = math.NaN()
		case x < 4:
			prices[i] = -float64(r.Intn(30))
		default:
			prices[i] = float64(r.Intn(60))
		}
		types[i] = fmt.Sprintf("t%d", r.Intn(4))
	}
	if err := ds.SetNumeric("Price", prices); err != nil {
		t.Fatal(err)
	}
	if err := ds.SetCategorical("Type", types); err != nil {
		t.Fatal(err)
	}
	rows := make([][]int, 400)
	for i := range rows {
		// A few hot items make the lattice several levels deep.
		for it := 0; it < items; it++ {
			if r.Float64() < 0.5/float64(1+it/4) {
				rows[i] = append(rows[i], it)
			}
		}
	}
	if err := ds.AddTransactions(rows[:300]); err != nil {
		t.Fatal(err)
	}
	return ds, rows[300:]
}

// randomConstraint draws a 1-var constraint: mostly the forms a lattice
// search serves (ranges, min/max/sum bounds under every operator), and
// otherwise ones it cannot (avg, !=, cardinality, a domain constraint).
func randomConstraint(r *rand.Rand) Constraint {
	ops := []Op{LE, LT, GE, GT, EQ, NE}
	c := float64(r.Intn(80) - 20)
	if r.Intn(30) == 0 {
		c = math.NaN() // passes no bound
	}
	switch r.Intn(9) {
	case 0, 1, 2:
		lo := float64(r.Intn(60) - 20)
		return Range("Price", lo, lo+float64(r.Intn(60)))
	case 3:
		return Range("Price", 1000, 2000) // nothing passes
	case 4, 5:
		return Aggregate([]Agg{Min, Max, Sum}[r.Intn(3)], "Price", ops[r.Intn(5)], c)
	case 6:
		return Aggregate([]Agg{Min, Max, Sum, Avg}[r.Intn(4)], "Price", ops[4+r.Intn(2)], c)
	case 7:
		return Cardinality(ops[r.Intn(4)], 1+r.Intn(3))
	}
	return Domain([]Rel{SubsetOf, Intersects, DisjointFrom}[r.Intn(3)], "Type", "t0", "t1")
}

// randomSearchQuery draws a query at a threshold no lower than minSup: up
// to three 1-var constraints per side, one or two 2-var aggregate
// constraints over every aggregate and operator, sometimes a MaxLevel,
// MaxPairs or an S domain.
func randomSearchQuery(r *rand.Rand, ds *Dataset, minSup int) *Query {
	q := NewQuery(ds).MinSupport(minSup + r.Intn(8))
	for range r.Intn(4) {
		q.WhereS(randomConstraint(r))
	}
	for range r.Intn(4) {
		q.WhereT(randomConstraint(r))
	}
	aggs := []Agg{Min, Max, Sum, Avg}
	ops := []Op{LE, LT, GE, GT, EQ, NE}
	for range 1 + r.Intn(2) {
		q.Where2(Join(aggs[r.Intn(4)], "Price", ops[r.Intn(6)], aggs[r.Intn(4)], "Price"))
	}
	if r.Intn(3) == 0 {
		q.MaxLevel(1 + r.Intn(3))
	}
	if r.Intn(2) == 0 {
		q.MaxPairs(1 + r.Intn(40))
	}
	if r.Intn(4) == 0 {
		q.DomainS(0, 1, 2, 3, 5, 8, 13, 21)
	}
	return q
}

// filterReference is the generate-and-test filter over a side's cached
// lattice — every set up to MaxLevel held to the threshold, then to each
// constraint in order — as counters and prune sites.
func filterReference(label string, sets []mine.Counted, minSup, maxLevel int, cons []constraint.Constraint, stats *Stats, sites obs.Counters) {
	for _, c := range sets {
		if maxLevel > 0 && c.Set.Len() > maxLevel {
			continue
		}
		if c.Support < minSup {
			stats.CandidatesPruned++
			sites[label+":filter"]++
			continue
		}
		for _, con := range cons {
			stats.SetConstraintChecks++
			if !con.Satisfies(c.Set) {
				stats.CandidatesPruned++
				sites[label+":filter:"+con.String()]++
				break
			}
		}
	}
}

// cachedSets returns the sets the session holds for the domain.
func cachedSets(t *testing.T, sess *Session, dom itemset.Set) []mine.Counted {
	t.Helper()
	key := "*"
	if dom != nil {
		key = dom.Key()
	}
	e, ok := sess.cache.Get(key)
	if !ok {
		t.Fatalf("no cached lattice under %q", key)
	}
	return e.lat.Sets()
}

// resultJSON is the result as AppendJSON writes it.
func resultJSON(t *testing.T, res *Result) string {
	t.Helper()
	data, err := res.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// runPruned runs through run with a fresh PruneSet and returns its
// snapshot with the result.
func runPruned(t *testing.T, run func(context.Context) (*Result, error)) (*Result, obs.Counters) {
	t.Helper()
	prune := NewPruneSet()
	res, err := run(WithPruning(context.Background(), prune))
	if err != nil {
		t.Fatal(err)
	}
	return res, prune.Snapshot()
}

// TestSessionSearchMatchesGenerateAndTest holds random session queries to
// the engine's Apriori⁺ with nothing cached and to generate-and-test over
// the session's cached lattice: on a cache hit the result's AppendJSON —
// pairs, count, valid sets, levels and every Stats counter — and the prune
// sites are what testing every cached set against every constraint gives,
// with the engine's pair formation over the same valid sets. The queries
// cover NaN and negative prices, MaxLevel, thresholds above the cached one,
// leading constraints a lattice cannot search, every 2-var aggregate and
// operator, empty sides, MaxPairs, and appends that advance the lattice.
func TestSessionSearchMatchesGenerateAndTest(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	queries := 400
	if testing.Short() {
		queries = 150
	}
	const minSup = 12
	ds, reserve := searchDataset(t, r)
	sess := NewSession(ds)
	searched := 0
	for i := range queries {
		if i%50 == 49 {
			if err := ds.AddTransactions(reserve[:10]); err != nil {
				t.Fatal(err)
			}
			reserve = reserve[10:]
		}
		if i%50 == 0 || i%50 == 49 {
			// Hold the cache at minSup, advanced to the newest rows.
			for _, dom := range [][]int{nil, {0, 1, 2, 3, 5, 8, 13, 21}} {
				warm := NewQuery(ds).MinSupport(minSup).DomainS(dom...)
				if _, err := sess.Run(warm); err != nil {
					t.Fatal(err)
				}
			}
		}
		q := randomSearchQuery(r, ds, minSup)
		want, wantSites := runPruned(t, func(ctx context.Context) (*Result, error) { return q.RunContext(ctx, AprioriPlus) })
		got, gotSites := runPruned(t, func(ctx context.Context) (*Result, error) { return sess.RunContext(ctx, q) })

		icfq, err := q.compile()
		if err != nil {
			t.Fatal(err)
		}
		ref := Stats{PairChecks: want.Stats.PairChecks}
		refSites := obs.Counters{}
		for k, v := range wantSites {
			if strings.HasPrefix(k, "pairs:") {
				refSites[k] = v
				ref.CandidatesPruned += v
			}
		}
		filterReference("S", cachedSets(t, sess, icfq.DomainS), icfq.MinSupportS, icfq.MaxLevel, icfq.ConstraintsS, &ref, refSites)
		filterReference("T", cachedSets(t, sess, icfq.DomainT), icfq.MinSupportT, icfq.MaxLevel, icfq.ConstraintsT, &ref, refSites)
		expected := *want
		expected.Stats = ref
		if a, b := resultJSON(t, got), resultJSON(t, &expected); a != b {
			t.Fatalf("query %d %s:\nsession  %s\nexpected %s", i, q.Canonical(), a, b)
		}
		if !maps.Equal(gotSites, refSites) {
			t.Fatalf("query %d %s: prune sites\nsession  %v\nexpected %v", i, q.Canonical(), gotSites, refSites)
		}
		if len(icfq.ConstraintsS) > 0 {
			if _, ok := constraint.AggBoundsOf(icfq.ConstraintsS[0]); ok {
				searched++
			}
		}
	}
	if cs := sess.CacheStats(); cs.Advances == 0 || cs.Orders == 0 {
		t.Errorf("the mix exercised too little: %+v", cs)
	}
	if searched < queries/4 {
		t.Errorf("only %d of %d queries led with a searchable constraint", searched, queries)
	}
}

// TestSessionOrdersBuiltOncePerEntry starts eight queries on a fresh
// session at once: every one asks for the Price orders of the same new
// entry, and they are built once. Then eight goroutines query while
// another appends: each answer is what the same prepared plan gives run
// alone afterwards, and no entry has its orders built twice.
func TestSessionOrdersBuiltOncePerEntry(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ds, reserve := searchDataset(t, r)
	sess := NewSession(ds)
	if _, err := sess.Run(NewQuery(ds).MinSupport(12)); err != nil { // the entry, no orders yet
		t.Fatal(err)
	}
	query := func(i int) *Query {
		lo := float64(i % 7)
		return NewQuery(ds).MinSupport(12 + i%3).WhereS(Range("Price", lo, 60)).WhereT(Range("Price", -30, 40+lo)).
			Where2(Join(Max, "Price", LE, Min, "Price"))
	}
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range 8 {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			if _, err := sess.Run(query(i)); err != nil {
				t.Error(err)
			}
		}()
	}
	start.Done()
	done.Wait()
	if cs := sess.CacheStats(); cs.Orders != 1 {
		t.Fatalf("8 concurrent queries on one entry built its Price orders %d times, want 1", cs.Orders)
	}

	plans := make([]*Prepared, 48)
	got := make([]*Result, len(plans))
	var appends sync.WaitGroup
	appends.Add(1)
	go func() {
		defer appends.Done()
		for k := 0; k+10 <= len(reserve); k += 10 {
			if err := ds.AddTransactions(reserve[k : k+10]); err != nil {
				t.Error(err)
			}
		}
	}()
	for g := range 8 {
		done.Add(1)
		go func() {
			defer done.Done()
			for i := g; i < len(plans); i += 8 {
				p, err := sess.Prepare(query(i))
				if err == nil {
					got[i], err = p.Run()
				}
				if err != nil {
					t.Error(err)
					return
				}
				plans[i] = p
			}
		}()
	}
	done.Wait()
	appends.Wait()
	for i, p := range plans {
		if p == nil {
			t.FailNow()
		}
		alone, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if a, b := answerJSON(t, got[i]), answerJSON(t, alone); a != b {
			t.Fatalf("plan %d: concurrent answer differs from a serial run:\n%s\n%s", i, a, b)
		}
	}
	if cs := sess.CacheStats(); cs.Orders > 1+cs.Misses {
		t.Errorf("%d order builds over %d lattices: some entry built its orders twice", cs.Orders, 1+cs.Misses)
	}
}

// TestSessionChargesOrders: the columns and orders a query builds on a
// cached lattice are part of the entry's cost — in CacheStats.Bytes and the
// session_cache_bytes gauge — so a bound evicts with them counted, an entry
// that no longer fits alone leaves the cache, and dropping every entry
// returns the gauge to where it was.
func TestSessionChargesOrders(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	ds, _ := searchDataset(t, r)
	gauge := obs.MCacheBytes.Value
	base := gauge()
	sess := NewSession(ds)
	plain := NewQuery(ds).MinSupport(12)
	if _, err := sess.Run(plain); err != nil {
		t.Fatal(err)
	}
	e, _ := sess.cache.Get("*")
	sets := sess.CacheStats().Bytes
	if sets != e.setBytes || e.lat.Bytes() != 0 || gauge()-base != sets {
		t.Fatalf("before any order: CacheStats.Bytes %d, entry sets %d, orders %d, gauge +%d", sets, e.setBytes, e.lat.Bytes(), gauge()-base)
	}
	searched := NewQuery(ds).MinSupport(12).WhereS(Range("Price", 0, 40)).Where2(Join(Sum, "Price", LE, Sum, "Price"))
	if _, err := sess.Run(searched); err != nil {
		t.Fatal(err)
	}
	cs := sess.CacheStats()
	if e.lat.Bytes() == 0 || cs.Bytes != sets+e.lat.Bytes() || gauge()-base != cs.Bytes {
		t.Fatalf("after the orders: CacheStats.Bytes %d, sets %d + orders %d, gauge +%d", cs.Bytes, sets, e.lat.Bytes(), gauge()-base)
	}
	if cs.Orders != 2 { // the Price columns with the min/max orders, then the sum order
		t.Errorf("Orders = %d, want 2", cs.Orders)
	}

	// A second domain's entry, then a bound that holds both only without
	// the first one's orders: the least recently used goes.
	dom := NewQuery(ds).MinSupport(12).DomainS(0, 1, 2, 3).DomainT(0, 1, 2, 3)
	if _, err := sess.Run(dom); err != nil {
		t.Fatal(err)
	}
	both := sess.CacheStats().Bytes
	sess.SetCacheLimit(both - 1)
	cs = sess.CacheStats()
	if cs.Entries != 1 || cs.Evictions != 1 || cs.Bytes > cs.LimitBytes || gauge()-base != cs.Bytes {
		t.Fatalf("a bound one byte short of both entries: %+v, gauge +%d", cs, gauge()-base)
	}

	// An entry whose orders outgrow the bound alone leaves the cache.
	sess.SetCacheLimit(0)
	if _, err := sess.Run(plain); err != nil { // re-mined: a fresh entry, no orders
		t.Fatal(err)
	}
	e, _ = sess.cache.Get("*")
	sess.SetCacheLimit(sess.CacheStats().Bytes + 8)
	if _, err := sess.Run(searched); err != nil {
		t.Fatal(err)
	}
	if _, ok := sess.cache.Get("*"); ok || e.lat.Bytes() == 0 {
		t.Fatalf("an entry larger than the bound with its orders stayed cached: %+v", sess.CacheStats())
	}
	if cs := sess.CacheStats(); cs.Bytes > cs.LimitBytes || gauge()-base != cs.Bytes {
		t.Fatalf("after dropping the outgrown entry: %+v, gauge +%d", cs, gauge()-base)
	}

	// Dropping every entry returns the gauge to where it started.
	sess.SetCacheLimit(1)
	if cs := sess.CacheStats(); cs.Entries != 0 || cs.Bytes != 0 || gauge() != base {
		t.Fatalf("every entry dropped: %+v, gauge %d, want %d", cs, gauge(), base)
	}
}
