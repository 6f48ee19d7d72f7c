// Package lru is the one least-recently-used cache behind the server's
// result cache, its prepared-plan cache and each Session's lattice cache:
// string keys, a caller-supplied byte cost per entry, a strict byte bound
// and an optional entry bound.
package lru

import (
	"container/list"
	"sync"
)

// Cache is a bounded LRU map, safe for concurrent use. A nil *Cache is a
// disabled cache: every Get misses, every Put is dropped, and the other
// methods do nothing.
type Cache[V any] struct {
	mu         sync.Mutex
	order      *list.List // front = most recently used
	items      map[string]*list.Element
	bytes      int64
	maxBytes   int64 // 0 = unbounded
	maxEntries int   // 0 = unbounded
	onRemove   func(key string, v V, cost int64, evicted bool)

	hits, misses, evictions int64
}

type entry[V any] struct {
	key  string
	val  V
	cost int64
}

// Stats snapshots a cache's counters and occupancy.
type Stats struct {
	// Hits and Misses count Get outcomes; Evictions counts entries dropped to
	// fit a bound (not Delete, DeleteFunc or replacement).
	Hits, Misses, Evictions int64
	Entries                 int
	Bytes, MaxBytes         int64
}

// New creates a cache bounded by maxEntries and maxBytes (0 leaves that
// dimension unbounded). onRemove, when non-nil, is called for every entry
// that leaves the cache — evicted, deleted or replaced — exactly once, with
// the cost it was stored at. It runs under the cache's lock and must not
// call back into the cache.
func New[V any](maxEntries int, maxBytes int64, onRemove func(key string, v V, cost int64, evicted bool)) *Cache[V] {
	return &Cache[V]{
		order:      list.New(),
		items:      map[string]*list.Element{},
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		onRemove:   onRemove,
	}
}

// Get returns the value stored under key and marks it most recently used.
func (c *Cache[V]) Get(key string) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return v, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores v under key at the given byte cost, replacing any previous
// entry, then evicts least-recently-used entries until the bounds hold. An
// entry costing more than the whole byte bound is rejected (false) and
// leaves the cache unchanged, so the bound is strict.
func (c *Cache[V]) Put(key string, v V, cost int64) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.maxBytes > 0 && cost > c.maxBytes {
		return false
	}
	if el, ok := c.items[key]; ok {
		c.remove(el, false)
	}
	c.items[key] = c.order.PushFront(&entry[V]{key: key, val: v, cost: cost})
	c.bytes += cost
	c.fit()
	return true
}

// Delete removes key if present.
func (c *Cache[V]) Delete(key string) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.remove(el, false)
	}
}

// DeleteFunc removes every entry for which match returns true.
func (c *Cache[V]) DeleteFunc(match func(key string, v V) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.order.Front(); el != nil; {
		next := el.Next()
		if e := el.Value.(*entry[V]); match(e.key, e.val) {
			c.remove(el, false)
		}
		el = next
	}
}

// SetMaxBytes retunes the byte bound (0 = unbounded), evicting immediately
// to fit.
func (c *Cache[V]) SetMaxBytes(maxBytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.maxBytes = maxBytes
	c.fit()
}

// Stats reports the counters and current occupancy.
func (c *Cache[V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		Entries: c.order.Len(), Bytes: c.bytes, MaxBytes: c.maxBytes,
	}
}

// fit evicts from the cold end until both bounds hold. Callers hold c.mu.
func (c *Cache[V]) fit() {
	for (c.maxEntries > 0 && c.order.Len() > c.maxEntries) ||
		(c.maxBytes > 0 && c.bytes > c.maxBytes) {
		c.remove(c.order.Back(), true)
		c.evictions++
	}
}

// remove unlinks one entry and reports it to the hook. Callers hold c.mu.
func (c *Cache[V]) remove(el *list.Element, evicted bool) {
	e := c.order.Remove(el).(*entry[V])
	delete(c.items, e.key)
	c.bytes -= e.cost
	if c.onRemove != nil {
		c.onRemove(e.key, e.val, e.cost, evicted)
	}
}
