package server

import (
	"sync"
	"time"
)

// Quota is the per-client fairness layer: one token bucket per client
// key, refilled at rate tokens/second up to burst. It sits between the
// response cache and the admission gate — cache hits bypass it (they
// cost nothing worth rationing), and requests it sheds never reach the
// gate, so one hot client exhausts its own bucket instead of the shared
// queue. A quota shed is reported distinctly from a capacity shed: 429
// with kind "quota-exceeded" versus the gate's "overloaded".
//
// The client table is bounded at maxClients buckets; inserting past the
// bound evicts the least-recently-seen client (whose bucket restarts
// full if it returns — a bounded-memory tradeoff, not a correctness
// one). All methods are safe for concurrent use and nil-receiver-safe.
type Quota struct {
	mu         sync.Mutex
	rate       float64 // tokens per second
	burst      float64
	maxClients int
	clients    map[string]*tokenBucket
	shed       int64
}

// tokenBucket is one client's bucket; refill is computed lazily from
// the time of the last Allow call.
type tokenBucket struct {
	tokens float64
	last   time.Time
}

// NewQuota builds a quota admitting burst immediate requests per client
// and rate requests/second sustained. burst < 1 is treated as 1;
// maxClients < 1 falls back to 4096.
func NewQuota(rate float64, burst, maxClients int) *Quota {
	b := float64(burst)
	if b < 1 {
		b = 1
	}
	if maxClients < 1 {
		maxClients = 4096
	}
	return &Quota{
		rate:       rate,
		burst:      b,
		maxClients: maxClients,
		clients:    make(map[string]*tokenBucket),
	}
}

// Allow takes one token from client's bucket. When the bucket is empty
// it reports false plus the wait until one token refills (the 429's
// Retry-After hint) and counts a shed. now is a parameter so tests can
// drive the clock.
func (q *Quota) Allow(client string, now time.Time) (bool, time.Duration) {
	if q == nil {
		return true, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	b := q.clients[client]
	if b == nil {
		if len(q.clients) >= q.maxClients {
			q.evictOldestLocked()
		}
		b = &tokenBucket{tokens: q.burst, last: now}
		q.clients[client] = b
	} else {
		if el := now.Sub(b.last).Seconds(); el > 0 {
			b.tokens += el * q.rate
			if b.tokens > q.burst {
				b.tokens = q.burst
			}
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	q.shed++
	wait := time.Duration((1 - b.tokens) / q.rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return false, wait
}

// evictOldestLocked removes the least-recently-seen bucket; callers
// hold q.mu and have at least one entry in the table.
func (q *Quota) evictOldestLocked() {
	var oldest string
	var oldestAt time.Time
	first := true
	for c, b := range q.clients {
		if first || b.last.Before(oldestAt) {
			oldest, oldestAt, first = c, b.last, false
		}
	}
	delete(q.clients, oldest)
}

// Shed reports requests rejected for being over quota.
func (q *Quota) Shed() int64 {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.shed
}

// Clients reports the tracked client-bucket count.
func (q *Quota) Clients() int {
	if q == nil {
		return 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.clients)
}
