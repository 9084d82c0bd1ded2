// Package lru provides Cache, the repository's one least-recently-used
// cache, behind the service's result cache, experiment's deployment and
// pre-power stage caches, and schedule's verification cache.
//
// Eviction. A cache has an entry budget and a byte budget; each entry
// carries the weight its inserter gave it. When an entry is inserted (by
// Add, or by a Fill that misses), least-recently-used entries are dropped
// until both budgets hold, except that the newest entry is always kept and
// an entry whose fill is in flight is never dropped. A finished fill does
// not evict; the next insertion restores the budgets.
//
// Fill. The first caller of a missing key inserts an in-flight entry and
// runs build; later callers wait for it. A successful build is cached with
// weight zero (it counts against the entry budget only). A failed build is
// dropped, so the next caller retries, and a waiter whose builder failed
// runs build itself, under its own context, without caching the result.
// Add and Remove on an in-flight key detach the fill: its waiters still get
// its result, but the result is not cached.
//
// A Cache is safe for concurrent use.
package lru

import (
	"context"
	"sync"
)

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
	// building marks an in-flight fill (guarded by the cache mutex); ready
	// is closed once the builder has stored val and err.
	building bool
	ready    chan struct{}
	err      error
}

// Cache is a byte-weighted LRU map from K to V with singleflight fill.
type Cache[K comparable, V any] struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	bytes      int64
	items      map[K]*entry[K, V]
	// root is the sentinel of the circular recency list: root.next is the
	// most recently used entry, root.prev the least.
	root entry[K, V]

	hits, misses, evictions int64
}

// New returns an empty cache holding at most maxEntries entries and
// maxBytes of entry weight (beyond the always-kept newest entry). The
// budgets are taken literally: pass math.MaxInt or math.MaxInt64 to leave
// one unbounded.
func New[K comparable, V any](maxEntries int, maxBytes int64) *Cache[K, V] {
	c := &Cache[K, V]{maxEntries: maxEntries, maxBytes: maxBytes, items: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under key and promotes it to most recently
// used. It counts a hit, or a miss when the key is absent or still being
// filled (Get never waits).
func (c *Cache[K, V]) Get(key K) (V, bool) { return c.lookup(key, true) }

// Peek is Get without promoting the entry or counting the lookup — the
// read-only probe for fan-outs that apply recency updates afterwards, in a
// deterministic order.
func (c *Cache[K, V]) Peek(key K) (V, bool) { return c.lookup(key, false) }

func (c *Cache[K, V]) lookup(key K, touch bool) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if !ok || e.building {
		if touch {
			c.misses++
		}
		var zero V
		return zero, false
	}
	if touch {
		c.hits++
		c.moveFront(e)
	}
	return e.val, true
}

// Add caches val under key with the given weight as the most recently used
// entry, replacing any previous entry, then evicts past the budgets.
func (c *Cache[K, V]) Add(key K, val V, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.items[key]; ok {
		c.drop(old)
	}
	c.insert(&entry[K, V]{key: key, val: val, size: size})
}

// Remove drops key from the cache and reports whether it was present.
func (c *Cache[K, V]) Remove(key K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.items[key]
	if ok {
		c.drop(e)
	}
	return ok
}

// Fill returns the value cached under key, building it with build on a
// miss (see the package doc for the singleflight rules). hit reports
// whether the key was cached or in flight when looked up — the lookup
// counted in Stats — even if its builder then failed and this caller ran
// build cold. A waiter whose ctx ends first returns ctx.Err().
func (c *Cache[K, V]) Fill(ctx context.Context, key K, build func() (V, error)) (val V, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.hits++
		c.moveFront(e)
		val = e.val
		building := e.building
		c.mu.Unlock()
		if !building {
			return val, true, nil
		}
		select {
		case <-ctx.Done():
			return val, true, ctx.Err()
		case <-e.ready:
		}
		if e.err != nil {
			val, err = build()
			return val, true, err
		}
		return e.val, true, nil
	}
	c.misses++
	e := &entry[K, V]{key: key, building: true, ready: make(chan struct{})}
	c.insert(e)
	c.mu.Unlock()

	val, err = build()
	c.mu.Lock()
	e.val, e.err, e.building = val, err, false
	if err != nil && c.items[key] == e {
		c.drop(e)
	}
	c.mu.Unlock()
	close(e.ready)
	return val, false, err
}

// Len reports the number of entries, in-flight fills included.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Bytes reports the summed weight of the cached entries.
func (c *Cache[K, V]) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Stats reports the lifetime hit, miss and eviction counters.
func (c *Cache[K, V]) Stats() (hits, misses, evictions int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evictions
}

// Keys returns the cached keys, most recently used first.
func (c *Cache[K, V]) Keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, len(c.items))
	for e := c.root.next; e != &c.root; e = e.next {
		keys = append(keys, e.key)
	}
	return keys
}

// insert links e as the most recently used entry and evicts past the
// budgets. Callers hold c.mu.
func (c *Cache[K, V]) insert(e *entry[K, V]) {
	c.items[e.key] = e
	c.bytes += e.size
	c.pushFront(e)
	for len(c.items) > 1 && (len(c.items) > c.maxEntries || c.bytes > c.maxBytes) {
		victim := c.root.prev
		for victim.building {
			victim = victim.prev
		}
		if victim == e || victim == &c.root {
			return
		}
		c.drop(victim)
		c.evictions++
	}
}

// drop unlinks e and removes it from the index. Callers hold c.mu.
func (c *Cache[K, V]) drop(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	delete(c.items, e.key)
	c.bytes -= e.size
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[K, V]) moveFront(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
	c.pushFront(e)
}
