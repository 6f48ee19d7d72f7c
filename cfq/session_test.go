package cfq

import (
	"strings"
	"testing"
)

func TestSessionMatchesDirectRun(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)

	queries := []*Query{
		NewQuery(ds).MinSupport(2).
			Where2(Join(Max, "Price", LE, Min, "Price")),
		NewQuery(ds).MinSupport(2).
			WhereS(Domain(SubsetOf, "Type", "snacks")).
			WhereT(Aggregate(Min, "Price", GE, 8)).
			Where2(Join(Max, "Price", LE, Min, "Price")),
		NewQuery(ds).MinSupport(3). // refinement: higher threshold
						WhereS(Domain(SubsetOf, "Type", "snacks")),
		NewQuery(ds).MinSupport(2).
			WhereT(Cardinality(LE, 2)).
			Where2(DomainJoin(DisjointFrom, "Type", "Type")),
		// MaxLevel truncates the cached (complete) lattice like the engine's.
		NewQuery(ds).MinSupport(2).MaxLevel(1).
			Where2(Join(Max, "Price", LE, Min, "Price")),
		NewQuery(ds).MinSupport(2).MaxLevel(2).
			WhereS(Domain(SubsetOf, "Type", "snacks")),
	}
	for i, q := range queries {
		fromSession, err := sess.Run(q)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		direct, err := q.Run(Optimized)
		if err != nil {
			t.Fatalf("query %d direct: %v", i, err)
		}
		if strings.Join(pairKeys(fromSession), ";") != strings.Join(pairKeys(direct), ";") {
			t.Errorf("query %d: session answer differs from direct run", i)
		}
		if fromSession.PairCount != direct.PairCount {
			t.Errorf("query %d: PairCount %d vs %d", i, fromSession.PairCount, direct.PairCount)
		}
	}
	// First query misses for the shared (nil-domain) lattice; all later
	// queries (same domain, equal-or-higher threshold) hit.
	cs := sess.CacheStats()
	if cs.Misses != 1 {
		t.Errorf("cache misses = %d, want 1", cs.Misses)
	}
	if cs.Hits < 2*len(queries)-1 {
		t.Errorf("cache hits = %d, want >= %d", cs.Hits, 2*len(queries)-1)
	}
}

func TestSessionLowerThresholdRemines(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	if _, err := sess.Run(NewQuery(ds).MinSupport(4)); err != nil {
		t.Fatal(err)
	}
	missesAfterFirst := sess.CacheStats().Misses
	// A *lower* threshold cannot be served from the cache.
	if _, err := sess.Run(NewQuery(ds).MinSupport(2)); err != nil {
		t.Fatal(err)
	}
	if misses := sess.CacheStats().Misses; misses <= missesAfterFirst {
		t.Error("lower threshold served from a higher-threshold cache")
	}
	// …but now the low-threshold lattice serves both.
	hits := sess.CacheStats().Hits
	if _, err := sess.Run(NewQuery(ds).MinSupport(4)); err != nil {
		t.Fatal(err)
	}
	if h := sess.CacheStats().Hits; h <= hits {
		t.Error("refinement after re-mining did not hit the cache")
	}
}

func TestSessionInvalidation(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	res1, err := sess.Run(NewQuery(ds).MinSupport(2))
	if err != nil {
		t.Fatal(err)
	}
	// Mutate the dataset: the cache must be rebuilt and the answer change.
	for i := 0; i < 5; i++ {
		if err := ds.AddTransaction(0, 5); err != nil {
			t.Fatal(err)
		}
	}
	res2, err := sess.Run(NewQuery(ds).MinSupport(2))
	if err != nil {
		t.Fatal(err)
	}
	if res1.PairCount == res2.PairCount {
		t.Error("answer unchanged after dataset mutation (stale cache?)")
	}
	direct, _ := NewQuery(ds).MinSupport(2).Run(Optimized)
	if res2.PairCount != direct.PairCount {
		t.Errorf("post-mutation session answer %d, direct %d", res2.PairCount, direct.PairCount)
	}
}

func TestSessionDomainsCachedSeparately(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	if _, err := sess.Run(NewQuery(ds).MinSupport(2).DomainS(0, 1, 2).DomainT(3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if misses := sess.CacheStats().Misses; misses != 2 {
		t.Errorf("misses = %d, want 2 (one per domain)", misses)
	}
	if _, err := sess.Run(NewQuery(ds).MinSupport(3).DomainS(0, 1, 2).DomainT(3, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if misses := sess.CacheStats().Misses; misses != 2 {
		t.Errorf("refinement re-mined: misses = %d", misses)
	}
}

func TestSessionWrongDataset(t *testing.T) {
	ds := marketDataset(t)
	other := marketDataset(t)
	sess := NewSession(ds)
	if _, err := sess.Run(NewQuery(other)); err == nil {
		t.Error("query against a different dataset accepted")
	}
	if _, err := sess.Run(nil); err == nil {
		t.Error("nil query accepted")
	}
}
