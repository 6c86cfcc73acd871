package server

import (
	"container/list"
	"sync"
	"time"
)

// Cache is the serving layer's response cache: an LRU bounded by total
// byte size with a per-entry TTL, keyed on the canonical plan key (see
// exec.Plan.CacheKey) plus the serving-side discriminators the handlers
// fold in (prepared-handle epoch). Table registrations are permanent
// and every table is immutable, so an entry stays correct until it is
// evicted: nothing about a table can change under its key.
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

	hits      int64
	misses    int64
	evictions int64
}

// cacheEntry is one cached response plus its admission metadata.
type cacheEntry struct {
	key     string
	resp    QueryResponse
	size    int64
	expires time.Time // zero when the cache has no TTL
}

// NewCache builds a cache bounded at maxBytes total entry size.
// ttl <= 0 disables age-based expiry (entries still churn by LRU).
func NewCache(maxBytes int64, ttl time.Duration) *Cache {
	return &Cache{
		maxBytes: maxBytes,
		ttl:      ttl,
		lru:      list.New(),
		entries:  make(map[string]*list.Element),
	}
}

// Get looks up key. An expired entry is removed and counts an eviction;
// it and plain absence count a miss.
//
// The second parameter is ignored. It stays so the frozen
// benchmark/trace.go, which passes 1, compiles; it goes when a
// benchmark PR may edit that file.
func (c *Cache) Get(key string, _ uint64) (QueryResponse, bool) {
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

// Put stores resp under key, evicting from the LRU tail until the byte
// bound holds. A response too large to ever fit is not cached. The
// second parameter is ignored, as Get's is.
func (c *Cache) Put(key string, _ uint64, resp QueryResponse) {
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
	e := &cacheEntry{key: key, resp: resp, size: size}
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
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
}

// Stats snapshots the counters. A nil cache reports zeros.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   len(c.entries),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
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
