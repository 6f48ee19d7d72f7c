package cfq

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSessionCacheLimitEvicts: a bounded session evicts least-recently-used
// domain lattices instead of growing without limit, surfaces the evictions
// in CacheStats, and keeps answering correctly (evicted domains re-mine).
func TestSessionCacheLimitEvicts(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)
	// A 1 KiB bound holds two of the three-item domains' lattices (400-600
	// estimated bytes each) but not three, and not the full-domain lattice
	// (2400): the third small domain displaces the first.
	sess.SetCacheLimit(1024)

	domains := [][]int{nil, {0, 1, 2}, {3, 4, 5}, {1, 2, 3}}
	want := make([]int64, len(domains))
	for i, dom := range domains {
		q := NewQuery(ds).MinSupport(2)
		if dom != nil {
			q.DomainS(dom...).DomainT(dom...)
		}
		res, err := sess.Run(q)
		if err != nil {
			t.Fatalf("domain %v: %v", dom, err)
		}
		want[i] = res.PairCount
	}
	cs := sess.CacheStats()
	if cs.Evictions == 0 {
		t.Fatalf("no evictions under a 1 KiB bound: %+v", cs)
	}
	if cs.LimitBytes != 1024 || cs.Bytes > cs.LimitBytes {
		t.Errorf("cache over limit: %+v", cs)
	}
	// Evicted domains still answer correctly (they re-mine).
	for i, dom := range domains {
		q := NewQuery(ds).MinSupport(2)
		if dom != nil {
			q.DomainS(dom...).DomainT(dom...)
		}
		res, err := sess.Run(q)
		if err != nil {
			t.Fatalf("re-query domain %v: %v", dom, err)
		}
		if res.PairCount != want[i] {
			t.Errorf("domain %v: PairCount %d after eviction, want %d", dom, res.PairCount, want[i])
		}
	}

	// An entry larger than the whole limit is rejected outright: the bound
	// stays strict and later queries still work.
	sess.SetCacheLimit(8)
	if _, err := sess.Run(NewQuery(ds).MinSupport(2)); err != nil {
		t.Fatal(err)
	}
	if cs := sess.CacheStats(); cs.Bytes > 8 {
		t.Errorf("oversized lattice retained: %+v", cs)
	}
}

// TestSessionConcurrentSoak hammers one Session from many goroutines with a
// mix of clean runs, budget-tripped runs, cancelled runs, and cache-churning
// domain/threshold variation — the exact reuse pattern a shared-session
// query server relies on. After the storm: no goroutine leaks, and the cache
// is not poisoned (a final query matches a fresh session bit-for-bit).
func TestSessionConcurrentSoak(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	ds := marketDataset(t)
	sess := NewSession(ds)
	sess.SetCacheLimit(64 << 10)

	// Reference answers from plain engine runs (no session, no races).
	type variant struct {
		minSup int
		domain []int
	}
	variants := []variant{
		{2, nil}, {3, nil}, {4, nil},
		{2, []int{0, 1, 2}}, {2, []int{3, 4, 5}},
	}
	want := map[int]string{}
	wantCount := map[int]int64{}
	for i, v := range variants {
		q := NewQuery(ds).MinSupport(v.minSup)
		if v.domain != nil {
			q.DomainS(v.domain...).DomainT(v.domain...)
		}
		res, err := q.Run(Optimized)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = strings.Join(pairKeys(res), ";")
		wantCount[i] = res.PairCount
	}
	buildQuery := func(i int) *Query {
		v := variants[i%len(variants)]
		q := NewQuery(ds).MinSupport(v.minSup)
		if v.domain != nil {
			q.DomainS(v.domain...).DomainT(v.domain...)
		}
		return q
	}

	const workers = 16
	const iters = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers*iters)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				vi := (w + i) % len(variants)
				q := buildQuery(vi)
				switch (w + i) % 4 {
				case 0, 1: // clean run: answer must be exact
					res, err := sess.Run(q)
					if err != nil {
						errs <- err
						continue
					}
					if got := strings.Join(pairKeys(res), ";"); got != want[vi] || res.PairCount != wantCount[vi] {
						errs <- errors.New("concurrent session answer diverged from direct run")
					}
				case 2: // budget trip: either a BudgetError (mining was
					// needed) or an exact answer (served from cache).
					q.Budget(Budget{MaxCandidates: 1})
					res, err := sess.Run(q)
					if err != nil {
						var be *BudgetError
						if !errors.As(err, &be) {
							errs <- err
						}
						continue
					}
					if res.PairCount != wantCount[vi] {
						errs <- errors.New("budget-path cached answer diverged")
					}
				case 3: // cancellation racing the run
					ctx, cancel := context.WithCancel(context.Background())
					go func() {
						time.Sleep(time.Duration((w+i)%3) * 100 * time.Microsecond)
						cancel()
					}()
					res, err := sess.RunContext(ctx, q)
					cancel()
					if err != nil {
						if !errors.Is(err, context.Canceled) {
							errs <- err
						}
						continue
					}
					if res.PairCount != wantCount[vi] {
						errs <- errors.New("cancel-path answer diverged")
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The cache survived the storm unpoisoned: every variant still answers
	// exactly, and a fresh session agrees.
	for i := range variants {
		res, err := sess.Run(buildQuery(i))
		if err != nil {
			t.Fatalf("post-soak variant %d: %v", i, err)
		}
		if got := strings.Join(pairKeys(res), ";"); got != want[i] {
			t.Errorf("post-soak variant %d diverged (poisoned cache?)", i)
		}
	}
	fresh, err := NewSession(ds).Run(buildQuery(0))
	if err != nil {
		t.Fatal(err)
	}
	if fresh.PairCount != wantCount[0] {
		t.Error("fresh session disagrees after soak")
	}

	// No goroutine leaks: the cancellation helpers and miners all unwound.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+2 {
		t.Errorf("goroutines leaked: %d before, %d after", goroutinesBefore, n)
	}
}

// TestSessionStoreRacingMutation: a run that captured the pre-mutation
// snapshot must not store its lattice into the post-mutation cache (the
// "poisoned store" hazard). The mutation is injected between the run's
// compile and its cache store via a budget checkpoint, deterministically.
func TestSessionStoreRacingMutation(t *testing.T) {
	ds := marketDataset(t)
	sess := NewSession(ds)

	mutated := false
	q := NewQuery(ds).MinSupport(2).Budget(Budget{Checkpoint: func(string) error {
		if !mutated {
			mutated = true
			// Mutate and recompile mid-run: the session's next run flips to
			// the new snapshot; the in-flight run keeps mining the old one.
			if err := ds.AddTransaction(0, 5); err != nil {
				return err
			}
			if err := ds.Compile(); err != nil {
				return err
			}
			// Flip the session's cache generation the way a concurrent
			// request would.
			if _, err := sess.Run(NewQuery(ds).MinSupport(2)); err != nil {
				return err
			}
		}
		return nil
	}})
	// The old-snapshot run completes against its own consistent snapshot…
	if _, err := sess.Run(q); err != nil {
		t.Fatal(err)
	}
	// …but the cache must describe the *new* snapshot: a fresh query's
	// answer matches a direct post-mutation run.
	res, err := sess.Run(NewQuery(ds).MinSupport(2))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := NewQuery(ds).MinSupport(2).Run(Optimized)
	if err != nil {
		t.Fatal(err)
	}
	if res.PairCount != direct.PairCount {
		t.Errorf("stale lattice poisoned the refreshed cache: session %d, direct %d",
			res.PairCount, direct.PairCount)
	}
}
