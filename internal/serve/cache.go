package serve

import (
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/lru"
)

// The result cache is the daemon's second cache layer, above the
// per-dataset session lattice cache: it maps a *normalized* query —
// canonical query text × dataset generation × evaluation mode — to the
// encoded result bytes, so a repeated query is answered without touching
// the session, its stored bytes written as stored. The canonical form is
// conjunct-order- and whitespace-independent (cfq.Query.Canonical), so
// syntactically different spellings of the same query share one entry.
//
// Generation is part of the key, so a dataset mutation implicitly misses;
// mutation and drop additionally delete the dead generations' entries
// eagerly (resultsOf) so memory is released immediately rather than waiting
// for LRU churn.

// cachedResult is the cacheable portion of a QueryResponse: everything
// except the per-request fields (request id, cached flag). Result is the
// exact-size encoding of the cfq.Result (encodeResult), shared read-only by
// the cache, collapse followers and every response that carries it.
type cachedResult struct {
	Generation uint64
	Strategy   string
	Result     json.RawMessage
	Explain    json.RawMessage
}

// newResultCache bounds the cache by entries and bytes (either 0 disables
// that bound; both 0 disables caching entirely: a nil cache).
func newResultCache(maxEntries int, maxBytes int64) *lru.Cache[cachedResult] {
	if maxEntries <= 0 && maxBytes <= 0 {
		return nil
	}
	return lru.New(maxEntries, maxBytes, func(_ string, _ cachedResult, cost int64, evicted bool) {
		mResultEntries.Add(-1)
		mResultBytes.Add(-cost)
		if evicted {
			mResultEvictions.Inc()
		}
	})
}

// resultKey builds the cache key. kind distinguishes the three endpoints
// (their payload shapes differ), mode the evaluation path (session vs a
// named engine strategy — their Stats and Plan differ even though the
// answers agree), gen the dataset snapshot.
func resultKey(dataset string, gen uint64, kind, mode, canonical string) string {
	return fmt.Sprintf("%s\x00%d\x00%s\x00%s\x00%s", dataset, gen, kind, mode, canonical)
}

// putResult stores a result under its key.
func (s *Server) putResult(key string, v cachedResult) {
	cost := int64(len(key) + len(v.Result) + len(v.Explain) + 64)
	if s.cache.Put(key, v, cost) {
		mResultEntries.Add(1)
		mResultBytes.Add(cost)
	}
}

// resultsOf matches every result-cache key of the dataset (all
// generations): the invalidation predicate of mutation and drop.
func resultsOf(dataset string) func(string, cachedResult) bool {
	prefix := dataset + "\x00"
	return func(key string, _ cachedResult) bool { return strings.HasPrefix(key, prefix) }
}

// cacheStatz renders a cache's counters for /statz.
func cacheStatz(st lru.Stats) map[string]int64 {
	return map[string]int64{
		"hits":      st.Hits,
		"misses":    st.Misses,
		"evictions": st.Evictions,
		"entries":   int64(st.Entries),
		"bytes":     st.Bytes,
	}
}
