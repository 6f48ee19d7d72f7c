package cfq

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/cap"
	"repro/internal/lru"
	"repro/internal/mine"
	"repro/internal/obs"
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
// runs it. Each side is then filtered from its cached lattice
// (cap.FilterLattice) and the pairs are formed as for every strategy. The
// cached lattice is searched, not scanned: on first use per numeric
// attribute an entry builds each set's min, max and sum and the sets'
// orders by them, once, and keeps them for every later query on it, so a
// leading range or min/max/sum bound costs a binary search and pair
// formation takes its T key order without sorting. Their bytes count in
// the entry's cache cost.
//
// The trade-off is deliberate: the first query on a domain costs about as
// much as Apriori⁺ (the cache must hold the *unconstrained* lattice to
// serve arbitrary future constraints), so a one-shot query is cheaper via
// Query.Run(Optimized). Sessions pay that once and then make the
// interactive loop free.
//
// Mutating the Dataset does not invalidate the cache. A Dataset's
// transactions are append-only — every compiled snapshot's leading rows are
// the previous snapshot's — so a cached lattice stays exact for the rows it
// was counted over, and the next query carries it to its own snapshot by
// counting the appended rows, not the database (mine.Advance); a mutation
// that appends nothing (new attributes) leaves the lattice a plain hit. A
// lattice is mined from scratch only when there is none, when the query asks
// for a lower threshold than the cached one, or when the cached one already
// covers more rows than the run's snapshot.
//
// A Session is safe for concurrent use: many goroutines may Run queries
// against it simultaneously (the pattern a query server relies on — one
// shared Session per dataset amortizes the lattice cache across all
// clients). A run that is cancelled or runs out of budget writes nothing to
// the cache: the entry it was advancing stays as it was, and retrying the
// same query on the same session returns the same result a new session
// would. A run that raced a dataset mutation never replaces a lattice that
// covers more rows than its own snapshot.
//
// Long-lived servers bound the cache with SetCacheLimit: when the estimated
// cached lattice bytes (the sets and the orders built on them) exceed the
// limit, least-recently-used domains are
// evicted (surfaced in CacheStats), so a many-dataset daemon cannot grow
// without limit.
type Session struct {
	ds    *Dataset
	cache *lru.Cache[*lattice] // by domain key

	mu sync.Mutex
	// Lookup outcomes under the session's reuse rules; every miss is either
	// an advance or a re-mine.
	hits, misses, advances, remines int
	// orders counts the column and order builds on the session's lattices.
	orders int
}

// lattice is one domain's cached unconstrained lattice: every set with
// support at least minSup over the dataset's first rows transactions, in the
// miner's order, with the attribute columns and orders queries build on it
// (cap.Lattice). It records a row count, not the snapshot it was counted
// over, so it pins no compiled database; every later snapshot extends those
// rows, which is what lets the entry be advanced instead of dropped.
type lattice struct {
	minSup int
	rows   int
	lat    *cap.Lattice
	// setBytes is the sets' share of the entry's cache cost; the columns
	// and orders built so far (lat.Bytes) are the rest.
	setBytes int64
}

// cost is the entry's byte cost in the cache: its sets and what has been
// built on them.
func (e *lattice) cost() int64 { return e.setBytes + e.lat.Bytes() }

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
	// Hits and Misses count cache lookups. A miss is a lookup for which a
	// lattice had to be produced: Advances of them carried a cached lattice
	// over appended rows, Remines mined from scratch. (Both are also the
	// session_cache_{advances,remines}_total metrics; they stay off the
	// serving API's dataset description.)
	Hits, Misses int
	Advances     int `json:"-"`
	Remines      int `json:"-"`
	// Orders counts the builds of attribute columns and orders on cached
	// lattices: one per lattice and numeric attribute a query searches or
	// keys pairs on, one more for a sum order. Their bytes are part of
	// Bytes.
	Orders int `json:"-"`
	// Evictions counts lattices dropped by the SetCacheLimit bound.
	Evictions int
	// Entries and Bytes describe current occupancy (Bytes is the sets'
	// estimate Stats.LatticeBytes uses, plus the columns and orders built
	// on them).
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
		Advances:   s.advances,
		Remines:    s.remines,
		Orders:     s.orders,
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
// run (cancellation or budget) stores no lattice and changes none (the
// attribute orders it may have built stay with their entry).
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
// The compiled snapshot the plan captures fixes the rows the run answers
// for: every cache lookup and store compares an entry's row count with that
// snapshot's, so a dataset mutation landing mid-run can neither tear what the
// run reads nor let it displace a lattice that already covers more.
func (s *Session) Prepare(q *Query) (*Prepared, error) {
	if q == nil || q.ds != s.ds {
		return nil, fmt.Errorf("cfq: session and query use different datasets")
	}
	p, err := q.Prepare(AprioriPlus)
	if err != nil {
		return nil, err
	}
	p.icfq.Lattice = s.lattice
	return p, nil
}

// lattice is the engine's lattice source (core.CFQ.Lattice): it returns the
// unconstrained lattice of cfg's domain over cfg.DB — the run's snapshot —
// complete down to cfg.MinSupport or lower. An entry covering exactly the
// snapshot's rows at a threshold no higher is a hit. One covering fewer rows
// at such a threshold is advanced over the rows behind it. Otherwise — no
// entry, a lower threshold asked, or an entry already past this snapshot (the
// run raced a mutation) — the lattice is mined from scratch. The lookup (and
// its hit counter) is one critical section; advancing and mining happen
// outside the lock and accumulate into the run's Stats, and a failed run
// stores nothing — the cache is never poisoned by partial lattices, and the
// entry an aborted advance started from is untouched. An advanced or
// re-mined lattice is a new entry with no columns or orders: queries build
// them again on it, as they need them.
func (s *Session) lattice(ctx context.Context, cfg mine.Config) (*cap.Lattice, error) {
	key := "*"
	if cfg.Domain != nil {
		key = cfg.Domain.Key()
	}
	rows := cfg.DB.Len()
	tracer := obs.FromContext(ctx)
	s.mu.Lock()
	old, ok := s.cache.Get(key)
	reusable := ok && old.rows <= rows && old.minSup <= cfg.MinSupport
	if reusable && old.rows == rows {
		s.hits++
		s.mu.Unlock()
		obs.MCacheHits.Inc()
		if tracer != nil {
			tracer.Start(cfg.Label+":cache-hit", obs.Int("sets", len(old.lat.Sets()))).End(nil)
		}
		return old.lat, nil
	}
	s.mu.Unlock()
	// Published at the decision point (not after mining) so a mid-run
	// metrics scrape sees the lookup that is being served right now.
	obs.MCacheMisses.Inc()

	var sets []mine.Counted
	var err error
	if reusable {
		obs.MCacheAdvances.Inc()
		sets, err = mine.Advance(ctx, cfg, old.lat.Sets(), old.minSup, old.rows)
	} else {
		obs.MCacheRemines.Inc()
		// The cache-miss span is structural: the labeled miner below emits
		// its own level delta spans as children.
		msp := tracer.Start(cfg.Label + ":cache-miss")
		var lw *mine.Levelwise
		var levels [][]mine.Counted
		if lw, err = mine.New(ctx, cfg); err == nil {
			levels, err = lw.RunAll()
		}
		msp.End(nil)
		sets = slices.Concat(levels...)
	}
	if err != nil {
		return nil, err
	}
	// The same per-set model Stats.LatticeBytes uses (rank-space set +
	// original copy + map overhead), plus a fixed per-entry overhead.
	e := &lattice{minSup: cfg.MinSupport, rows: rows, setBytes: 64}
	for _, c := range sets {
		e.setBytes += int64(16*c.Set.Len() + 64)
	}
	e.lat = cap.NewLattice(sets, func() { s.recost(key, e) })
	s.mu.Lock()
	s.misses++
	if reusable {
		s.advances++
	} else {
		s.remines++
	}
	// Keep the lattice that serves the most: more rows first (an entry
	// behind the newest snapshot answers nothing until it is advanced), then
	// the lower threshold (it serves every refinement). A run that raced a
	// mutation finds an entry past its own snapshot and stores nothing.
	if cur, ok := s.cache.Get(key); !ok || cur.rows < e.rows || (cur.rows == e.rows && e.minSup < cur.minSup) {
		s.put(key, e)
	}
	s.mu.Unlock()
	return e.lat, nil
}

// recost re-charges a cached entry after columns or orders were built on
// it: the cache stored it at the cost it had then, so it is stored again at
// its cost now (the bound may evict others to fit it, or drop it if it no
// longer fits alone). An entry the cache no longer holds is left alone.
func (s *Session) recost(key string, e *lattice) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.orders++
	if cur, ok := s.cache.Get(key); ok && cur == e {
		s.put(key, e)
	}
}

// put stores e under key at its current cost; an entry too large for the
// whole bound is not cached (and one already stored under key is dropped).
// Callers hold s.mu.
func (s *Session) put(key string, e *lattice) {
	cost := e.cost()
	if s.cache.Put(key, e, cost) {
		obs.MCacheBytes.Add(cost)
	} else if cur, ok := s.cache.Get(key); ok && cur == e {
		s.cache.Delete(key)
	}
}
