package cfq

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/lru"
	"repro/internal/mine"
	"repro/internal/obs"
	"repro/internal/txdb"
)

// Session supports the exploratory loop the two-phase architecture is
// designed around: a user poses a CFQ, inspects the answer, tightens or
// changes constraints, and asks again. A Session caches each variable
// domain's unconstrained frequent lattice (at the lowest support threshold
// seen), so every refinement — different constraints, higher thresholds —
// is answered by filtering the cache with zero database scans.
//
// A Session evaluates nothing itself. It is the lattice source of the
// engine's Apriori⁺ path: Prepare binds a query to that strategy with the
// session's cache in place of the miner, and the one executor (Prepared)
// runs it — the same generate-and-test filter and pair formation every
// strategy uses.
//
// The trade-off is deliberate: the first query on a domain costs about as
// much as Apriori⁺ (the cache must hold the *unconstrained* lattice to
// serve arbitrary future constraints), so a one-shot query is cheaper via
// Query.Run(Optimized). Sessions pay that once and then make the
// interactive loop free.
//
// A Session is safe for concurrent use: many goroutines may Run queries
// against it simultaneously (the pattern a query server relies on — one
// shared Session per dataset amortizes the lattice cache across all
// clients). Mutating the underlying Dataset invalidates the cache on the
// next Prepare. A run that is cancelled or runs out of budget writes nothing
// to the cache: retrying the same query on the same session mines afresh and
// returns the same result a new session would. A run that raced a dataset
// mutation never stores its (pre-mutation) lattice into the post-mutation
// cache.
//
// Long-lived servers bound the cache with SetCacheLimit: when the estimated
// cached lattice bytes exceed the limit, least-recently-used domains are
// evicted (surfaced in CacheStats), so a many-dataset daemon cannot grow
// without limit.
type Session struct {
	ds    *Dataset
	cache *lru.Cache[*lattice] // by domain key

	mu           sync.Mutex
	db           *txdb.DB // the compiled database the cache was built from
	hits, misses int      // lookup outcomes under the session's reuse rules
}

// lattice is one domain's cached unconstrained lattice, complete down to
// minSup.
type lattice struct {
	minSup int
	sets   []mine.Counted
}

// NewSession starts an exploratory session over the dataset.
func NewSession(ds *Dataset) *Session {
	return &Session{ds: ds, cache: lru.New(0, 0, func(_ string, _ *lattice, cost int64, evicted bool) {
		obs.MCacheBytes.Add(-cost)
		if evicted {
			obs.MCacheEvictions.Inc()
		}
	})}
}

// SetCacheLimit bounds the estimated bytes of cached lattice state
// (0 restores the default: unbounded). When an insert pushes the cache past
// the limit, least-recently-used entries are evicted until it fits; a
// single lattice larger than the whole limit is not cached at all, so the
// bound is strict. Evicted domains simply re-mine on next use.
func (s *Session) SetCacheLimit(maxBytes int64) { s.cache.SetMaxBytes(maxBytes) }

// CacheStats describes the session's lattice cache: lookup counters (one
// lookup per query side), LRU evictions, and current occupancy.
type CacheStats struct {
	// Hits and Misses count cache lookups.
	Hits, Misses int
	// Evictions counts lattices dropped by the SetCacheLimit bound.
	Evictions int
	// Entries and Bytes describe current occupancy (Bytes is the same
	// estimate Stats.LatticeBytes uses).
	Entries int
	Bytes   int64
	// LimitBytes is the configured bound (0 = unbounded).
	LimitBytes int64
}

// CacheStats reports the cache counters and occupancy.
func (s *Session) CacheStats() CacheStats {
	st := s.cache.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return CacheStats{
		Hits:       s.hits,
		Misses:     s.misses,
		Evictions:  int(st.Evictions),
		Entries:    st.Entries,
		Bytes:      st.Bytes,
		LimitBytes: st.MaxBytes,
	}
}

// Run evaluates the query against the session cache. It is
// RunContext(context.Background(), q).
func (s *Session) Run(q *Query) (*Result, error) {
	return s.RunContext(context.Background(), q)
}

// RunContext evaluates the query against the session cache under ctx, with
// the query's Budget (if any) spanning both sides' mining. Results are
// identical to q.Run with any strategy; only the work differs. An aborted
// run (cancellation or budget) leaves the cache exactly as it was.
func (s *Session) RunContext(ctx context.Context, q *Query) (*Result, error) {
	p, err := s.Prepare(q)
	if err != nil {
		return nil, err
	}
	return p.RunContext(ctx)
}

// Prepare binds the query to the session: the Apriori⁺ strategy with the
// session's cache as its lattice source. Session plans carry no planner
// decision: results are identical to any engine strategy, only the work
// differs.
//
// The compiled snapshot captured here is the run's generation token: the
// staleness check below, every cache lookup and every cache store key off
// this one pointer, so a dataset mutation landing mid-run can neither tear
// what the run reads nor let it poison the refreshed cache.
func (s *Session) Prepare(q *Query) (*Prepared, error) {
	if q == nil || q.ds != s.ds {
		return nil, fmt.Errorf("cfq: session and query use different datasets")
	}
	p, err := q.Prepare(AprioriPlus)
	if err != nil {
		return nil, err
	}
	p.icfq.Lattice = s.lattice
	s.mu.Lock()
	if s.db != p.icfq.DB {
		// The dataset was recompiled (new transactions or attributes):
		// every cached lattice is stale.
		s.cache.DeleteFunc(func(string, *lattice) bool { return true })
		s.db = p.icfq.DB
	}
	s.mu.Unlock()
	return p, nil
}

// lattice is the engine's lattice source (core.CFQ.Lattice): it returns the
// cached unconstrained lattice for cfg's domain, mining it if absent or
// cached at a higher threshold than requested. The lookup (and its hit
// counter) is one critical section; mining happens outside the lock and
// accumulates into the run's Stats, and a failed mining run stores nothing —
// the cache is never poisoned by partial lattices. cfg.DB is the compiled
// snapshot the run captured; a store is skipped when the cache has moved to
// a newer snapshot, so a slow run racing a dataset mutation cannot resurrect
// a stale lattice.
func (s *Session) lattice(ctx context.Context, cfg mine.Config) ([]mine.Counted, error) {
	key := "*"
	if cfg.Domain != nil {
		key = cfg.Domain.Key()
	}
	tracer := obs.FromContext(ctx)
	s.mu.Lock()
	if s.db == cfg.DB {
		if e, ok := s.cache.Get(key); ok && e.minSup <= cfg.MinSupport {
			s.hits++
			s.mu.Unlock()
			obs.MCacheHits.Inc()
			if tracer != nil {
				tracer.Start(cfg.Label+":cache-hit", obs.Int("sets", len(e.sets))).End(nil)
			}
			return e.sets, nil
		}
	}
	s.mu.Unlock()
	// Published at the decision point (not after mining) so a mid-run
	// metrics scrape sees the lookup that is being served right now.
	obs.MCacheMisses.Inc()

	// The cache-miss span is structural: the labeled miner below emits its
	// own level delta spans as children.
	msp := tracer.Start(cfg.Label + ":cache-miss")
	lw, err := mine.New(ctx, cfg)
	var levels [][]mine.Counted
	if err == nil {
		levels, err = lw.RunAll()
	}
	msp.End(nil)
	if err != nil {
		return nil, err
	}
	e := &lattice{minSup: cfg.MinSupport}
	// The same per-set model Stats.LatticeBytes uses (rank-space set +
	// original copy + map overhead), plus a fixed per-entry overhead.
	cost := int64(64)
	for _, lv := range levels {
		e.sets = append(e.sets, lv...)
		for _, c := range lv {
			cost += int64(16*c.Set.Len() + 64)
		}
	}
	s.mu.Lock()
	s.misses++
	// Keep the lowest-threshold lattice: it can serve every refinement.
	// Store only while the cache still describes the snapshot we mined —
	// a concurrent mutation flips s.db and this (now stale) lattice must
	// not survive the flip.
	if s.db == cfg.DB {
		if old, ok := s.cache.Get(key); (!ok || e.minSup < old.minSup) && s.cache.Put(key, e, cost) {
			obs.MCacheBytes.Add(cost)
		}
	}
	s.mu.Unlock()
	return e.sets, nil
}
