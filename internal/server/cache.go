package server

import (
	"container/list"
	"sync"
	"time"
)

// Cache is the serving layer's response cache: an LRU bounded by total
// byte size with a per-entry TTL, keyed on the canonical plan key (see
// exec.Plan.CacheKey) plus the serving-side discriminators the handlers
// fold in (prepared-handle epoch). Every entry records the table
// generation (aqppp.DB.Generation) observed *before* the query ran; a
// lookup whose current generation differs drops the entry on the spot.
// Because generations are monotone and bumped by both Register and
// Drop, an answer computed against a dropped table can never be served
// after the name is re-registered — the stale entry's generation can
// never equal the current one again.
//
// Hits are served in front of the admission gate: a cached answer costs
// a map lookup and a JSON encode, so making it queue behind real
// queries would only convert cheap requests into expensive ones. All
// methods are safe for concurrent use, and all are nil-receiver-safe so
// a server with caching disabled carries a nil *Cache and no branches
// elsewhere.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	ttl      time.Duration // <= 0 means entries never expire by age
	lru      *list.List    // front = most recently used; values are *cacheEntry
	entries  map[string]*list.Element
	bytes    int64

	hits          int64
	misses        int64
	evictions     int64
	invalidations int64
}

// cacheEntry is one cached response plus its admission metadata.
type cacheEntry struct {
	key     string
	gen     uint64
	resp    QueryResponse
	size    int64
	expires time.Time // zero when the cache has no TTL
}

// NewCache builds a cache bounded at maxBytes total entry size.
// ttl <= 0 disables age-based expiry (entries still churn by LRU and
// generation).
func NewCache(maxBytes int64, ttl time.Duration) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		ttl:      ttl,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get looks up key, requiring the entry's recorded generation to equal
// gen. A generation mismatch removes the entry and counts an
// invalidation; an expired entry is removed and counts an eviction.
// Both — and plain absence — count a miss.
func (c *Cache) Get(key string, gen uint64) (QueryResponse, bool) {
	if c == nil {
		return QueryResponse{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return QueryResponse{}, false
	}
	e := el.Value.(*cacheEntry)
	if e.gen != gen {
		c.removeLocked(el)
		c.invalidations++
		c.misses++
		return QueryResponse{}, false
	}
	if !e.expires.IsZero() && time.Now().After(e.expires) {
		c.removeLocked(el)
		c.evictions++
		c.misses++
		return QueryResponse{}, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.resp, true
}

// Put stores resp under key at generation gen, evicting from the LRU
// tail until the byte bound holds. A response too large to ever fit is
// not cached. Callers must capture gen BEFORE running the query: if the
// table churned mid-flight, the current generation has already moved
// past gen and the entry is stillborn (it can never be served) — which
// is exactly the safe outcome.
func (c *Cache) Put(key string, gen uint64, resp QueryResponse) {
	if c == nil {
		return
	}
	size := cacheSizeOf(key, resp)
	if size > c.maxBytes {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	e := &cacheEntry{key: key, gen: gen, resp: resp, size: size}
	if c.ttl > 0 {
		e.expires = time.Now().Add(c.ttl)
	}
	c.entries[key] = c.lru.PushFront(e)
	c.bytes += size
	for c.bytes > c.maxBytes {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
		c.evictions++
	}
}

// removeLocked unlinks one element; callers hold c.mu.
func (c *Cache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.lru.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= e.size
}

// CacheStats is a point-in-time snapshot of the cache counters, and the
// response cache's /statusz entry.
type CacheStats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	Entries       int   `json:"entries"`
	Bytes         int64 `json:"bytes"`
	MaxBytes      int64 `json:"max_bytes"`
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:          c.hits,
		Misses:        c.misses,
		Evictions:     c.evictions,
		Invalidations: c.invalidations,
		Entries:       len(c.entries),
		Bytes:         c.bytes,
		MaxBytes:      c.maxBytes,
	}
}

// cacheSizeOf estimates one entry's resident size: the key, the
// response struct, and each group row's strings. It is an accounting
// estimate (Go's real overhead varies), deliberately on the generous
// side so the byte bound errs toward caching less, not more.
func cacheSizeOf(key string, resp QueryResponse) int64 {
	size := int64(len(key)) + 160 + int64(len(resp.RequestID)+len(resp.Pre))
	for _, g := range resp.Groups {
		size += 96 + int64(len(g.Key)+len(g.Pre))
	}
	return size
}
