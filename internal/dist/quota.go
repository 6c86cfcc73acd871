package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// defaultLeaseBatch is how many tokens a lease requests at once: large
// enough to amortize the round trip, small enough that a client's
// unused allowance stranded on one replica stays negligible.
const defaultLeaseBatch = 8

// QuotaLease shares per-client quota state across the fleet by leasing
// token batches from one authority (the coordinator). A replica admits
// a request by consuming one locally cached token; when the cache is
// empty it POSTs /v1/quota/lease and the authority debits its bucket —
// so N processes drain one logical bucket instead of multiplying the
// quota by N. If the authority is unreachable the lease FAILS OPEN
// (admit, count it): quota is load protection, and turning an authority
// outage into a fleet-wide denial of service would invert its purpose.
type QuotaLease struct {
	url    string
	batch  int
	client *http.Client

	mu         sync.Mutex
	tokens     map[string]int
	maxClients int

	calls    atomic.Uint64
	denied   atomic.Uint64
	failOpen atomic.Uint64
}

// NewQuotaLease builds a lease client against the authority's base URL.
// batch <= 0 selects the default batch size.
func NewQuotaLease(url string, batch int, client *http.Client) *QuotaLease {
	if batch <= 0 {
		batch = defaultLeaseBatch
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &QuotaLease{
		url: url, batch: batch, client: client,
		tokens: make(map[string]int), maxClients: 4096,
	}
}

// Allow admits or denies one request for the client. It returns the
// authority's backoff hint on denial, and failOpen=true when the
// authority could not be reached and the request was admitted anyway.
func (q *QuotaLease) Allow(ctx context.Context, client string) (ok bool, retryAfter time.Duration, failedOpen bool) {
	q.mu.Lock()
	if q.tokens[client] > 0 {
		q.tokens[client]--
		q.mu.Unlock()
		return true, 0, false
	}
	q.mu.Unlock()

	q.calls.Add(1)
	granted, ra, err := q.lease(ctx, client)
	if err != nil {
		q.failOpen.Add(1)
		return true, 0, true
	}
	if granted <= 0 {
		q.denied.Add(1)
		return false, ra, false
	}
	if granted > 1 {
		q.mu.Lock()
		if len(q.tokens) >= q.maxClients {
			// Bound the cache; stranded tokens just mean an extra lease
			// round trip later.
			q.tokens = make(map[string]int)
		}
		q.tokens[client] += granted - 1
		q.mu.Unlock()
	}
	return true, 0, false
}

// lease asks the authority for a batch of tokens.
func (q *QuotaLease) lease(ctx context.Context, client string) (granted int, retryAfter time.Duration, err error) {
	body, err := json.Marshal(LeaseRequest{V: WireVersion, Client: client, Want: q.batch})
	if err != nil {
		return 0, 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, q.url+"/v1/quota/lease", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	status, _, data, err := roundTrip(q.client, req, 1<<16)
	if err != nil {
		return 0, 0, err
	}
	if status != http.StatusOK {
		return 0, 0, fmt.Errorf("lease authority status %d: %s", status, data)
	}
	var lr LeaseResponse
	if err := json.Unmarshal(data, &lr); err != nil {
		return 0, 0, fmt.Errorf("malformed lease response: %w", err)
	}
	if lr.V != WireVersion {
		return 0, 0, fmt.Errorf("lease authority speaks wire v%d, replica v%d", lr.V, WireVersion)
	}
	return lr.Granted, time.Duration(lr.RetryAfterMS) * time.Millisecond, nil
}

// LeaseSnapshot is the lease client's observable state for /statusz.
type LeaseSnapshot struct {
	Authority     string `json:"authority"`
	CachedClients int    `json:"cached_clients"`
	CachedTokens  int    `json:"cached_tokens"`
	LeaseCalls    uint64 `json:"lease_calls"`
	Denied        uint64 `json:"denied"`
	FailOpen      uint64 `json:"fail_open"`
}

// Snapshot captures the lease client's state.
func (q *QuotaLease) Snapshot() LeaseSnapshot {
	q.mu.Lock()
	clients, tokens := len(q.tokens), 0
	for _, n := range q.tokens {
		tokens += n
	}
	q.mu.Unlock()
	return LeaseSnapshot{
		Authority:     q.url,
		CachedClients: clients,
		CachedTokens:  tokens,
		LeaseCalls:    q.calls.Load(),
		Denied:        q.denied.Load(),
		FailOpen:      q.failOpen.Load(),
	}
}
