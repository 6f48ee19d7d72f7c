package lru

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// TestCache drives the one LRU through the mechanics its three users rely
// on (result cache, plan cache, session lattice cache): each case is a
// script of operations followed by the expected surviving keys (coldest
// first is not asserted — only membership), occupancy, and the on-remove
// hook's log.
func TestCache(t *testing.T) {
	type op struct {
		do   string // put, get, del, delprefix, maxbytes
		key  string
		cost int64
		want bool // put: stored; get: hit
	}
	cases := []struct {
		name                string
		maxEntries          int
		maxBytes            int64
		ops                 []op
		keys                []string
		bytes               int64
		evictions           int64
		hits, misses        int64
		removed             []string // hook log: key:cost:evicted, in order
		maxBytesAfterScript int64
	}{
		{
			name: "strict byte bound evicts least recently used", maxBytes: 100,
			ops: []op{
				{do: "put", key: "a", cost: 40, want: true},
				{do: "put", key: "b", cost: 40, want: true},
				{do: "get", key: "a", want: true}, // b is now coldest
				{do: "put", key: "c", cost: 40, want: true},
			},
			keys: []string{"a", "c"}, bytes: 80, evictions: 1, hits: 1,
			removed: []string{"b:40:true"}, maxBytesAfterScript: 100,
		},
		{
			name: "oversize entry rejected, cache unchanged", maxBytes: 100,
			ops: []op{
				{do: "put", key: "a", cost: 60, want: true},
				{do: "put", key: "big", cost: 101, want: false},
				{do: "put", key: "a", cost: 4096, want: false}, // oversize replacement keeps the old entry
				{do: "get", key: "big", want: false},
				{do: "get", key: "a", want: true},
			},
			keys: []string{"a"}, bytes: 60, hits: 1, misses: 1, maxBytesAfterScript: 100,
		},
		{
			name: "entry bound", maxEntries: 2,
			ops: []op{
				{do: "put", key: "a", cost: 1, want: true},
				{do: "put", key: "b", cost: 1, want: true},
				{do: "put", key: "c", cost: 1, want: true},
				{do: "get", key: "a", want: false},
				{do: "get", key: "b", want: true},
			},
			keys: []string{"b", "c"}, bytes: 2, evictions: 1, hits: 1, misses: 1,
			removed: []string{"a:1:true"},
		},
		{
			name: "SetMaxBytes evicts immediately", maxBytes: 100,
			ops: []op{
				{do: "put", key: "a", cost: 30, want: true},
				{do: "put", key: "b", cost: 30, want: true},
				{do: "put", key: "c", cost: 30, want: true},
				{do: "maxbytes", cost: 40},
			},
			keys: []string{"c"}, bytes: 30, evictions: 2,
			removed: []string{"a:30:true", "b:30:true"}, maxBytesAfterScript: 40,
		},
		{
			name:     "SetMaxBytes(0) lifts the bound",
			maxBytes: 10,
			ops: []op{
				{do: "maxbytes", cost: 0},
				{do: "put", key: "a", cost: 1 << 20, want: true},
			},
			keys: []string{"a"}, bytes: 1 << 20,
		},
		{
			name: "DeleteFunc by dataset prefix", maxBytes: 1000,
			ops: []op{
				{do: "put", key: "a\x001\x00q1", cost: 10, want: true},
				{do: "put", key: "b\x001\x00q2", cost: 10, want: true},
				{do: "put", key: "a\x002\x00q3", cost: 10, want: true},
				{do: "put", key: "ab\x001\x00q4", cost: 10, want: true}, // shares a's name prefix, not its key prefix
				{do: "delprefix", key: "a\x00"},
			},
			keys: []string{"ab\x001\x00q4", "b\x001\x00q2"}, bytes: 20,
			removed: []string{"a\x002\x00q3:10:false", "a\x001\x00q1:10:false"}, maxBytesAfterScript: 1000,
		},
		{
			name: "hook fires once per removal, replacement included", maxBytes: 100,
			ops: []op{
				{do: "put", key: "a", cost: 10, want: true},
				{do: "put", key: "a", cost: 20, want: true}, // replaces: hook sees the old cost
				{do: "del", key: "a"},
				{do: "del", key: "a"}, // already gone: no second call
				{do: "put", key: "b", cost: 50, want: true},
				{do: "put", key: "c", cost: 60, want: true}, // evicts b
			},
			keys: []string{"c"}, bytes: 60, evictions: 1,
			removed: []string{"a:10:false", "a:20:false", "b:50:true"}, maxBytesAfterScript: 100,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var removed []string
			c := New(tc.maxEntries, tc.maxBytes, func(key string, v string, cost int64, evicted bool) {
				if v != "v:"+key {
					t.Errorf("hook got value %q for key %q", v, key)
				}
				removed = append(removed, fmt.Sprintf("%s:%d:%v", key, cost, evicted))
			})
			for i, o := range tc.ops {
				switch o.do {
				case "put":
					if got := c.Put(o.key, "v:"+o.key, o.cost); got != o.want {
						t.Fatalf("op %d: Put(%q, cost %d) = %v, want %v", i, o.key, o.cost, got, o.want)
					}
				case "get":
					v, ok := c.Get(o.key)
					if ok != o.want || (ok && v != "v:"+o.key) {
						t.Fatalf("op %d: Get(%q) = %q, %v, want hit=%v", i, o.key, v, ok, o.want)
					}
				case "del":
					c.Delete(o.key)
				case "delprefix":
					c.DeleteFunc(func(key, _ string) bool { return strings.HasPrefix(key, o.key) })
				case "maxbytes":
					c.SetMaxBytes(o.cost)
				}
				if st := c.Stats(); st.MaxBytes > 0 && st.Bytes > st.MaxBytes {
					t.Fatalf("op %d: %d bytes over the %d bound", i, st.Bytes, st.MaxBytes)
				}
			}
			var keys []string
			c.DeleteFunc(func(key, _ string) bool { keys = append(keys, key); return false })
			sort.Strings(keys)
			if !reflect.DeepEqual(keys, tc.keys) {
				t.Errorf("surviving keys %q, want %q", keys, tc.keys)
			}
			st := c.Stats()
			want := Stats{Hits: tc.hits, Misses: tc.misses, Evictions: tc.evictions,
				Entries: len(tc.keys), Bytes: tc.bytes, MaxBytes: tc.maxBytesAfterScript}
			if st != want {
				t.Errorf("stats %+v, want %+v", st, want)
			}
			if !reflect.DeepEqual(removed, tc.removed) {
				t.Errorf("hook log %q, want %q", removed, tc.removed)
			}
		})
	}
}

// TestNilCacheIsDisabled: a nil cache is how the server spells "caching
// off" — every method is a safe no-op.
func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache[int]
	if c.Put("k", 1, 1) {
		t.Error("nil cache stored an entry")
	}
	if _, ok := c.Get("k"); ok {
		t.Error("nil cache hit")
	}
	c.Delete("k")
	c.DeleteFunc(func(string, int) bool { return true })
	c.SetMaxBytes(10)
	if st := c.Stats(); st != (Stats{}) {
		t.Errorf("nil cache stats %+v", st)
	}
}

// TestConcurrentUse: the cache is shared by every request goroutine; under
// -race this locks in that all state is behind its mutex and that the byte
// accounting survives interleaved puts, gets, deletes and retunes.
func TestConcurrentUse(t *testing.T) {
	var hookBytes int64 // guarded by the cache's lock (the hook runs under it)
	c := New(0, 4096, func(_ string, _ int, cost int64, _ bool) { hookBytes += cost })
	var wg sync.WaitGroup
	var stored [8]int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*31+i)%64)
				switch i % 5 {
				case 0, 1:
					if cost := int64(64 + i%128); c.Put(key, i, cost) {
						stored[g] += cost
					}
				case 2, 3:
					c.Get(key)
				default:
					c.Delete(key)
				}
				if i%100 == 99 {
					c.SetMaxBytes(int64(2048 + 1024*(g%3)))
				}
			}
		}(g)
	}
	wg.Wait()
	var total int64
	for _, n := range stored {
		total += n
	}
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Errorf("bytes %d over bound %d", st.Bytes, st.MaxBytes)
	}
	c.DeleteFunc(func(string, int) bool { return true })
	if got := c.Stats(); got.Bytes != 0 || got.Entries != 0 {
		t.Errorf("emptied cache reports %+v", got)
	}
	if hookBytes != total {
		t.Errorf("hook saw %d bytes leave, %d bytes were stored", hookBytes, total)
	}
}
