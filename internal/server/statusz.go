package server

import (
	"maps"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"aqppp/internal/dist"
	"aqppp/internal/shard"
	"aqppp/internal/stats"
	"aqppp/internal/store"
)

// endpointMetrics aggregates one endpoint's traffic; the request count
// is the latency histogram's.
type endpointMetrics struct {
	statuses map[int]int64
	latency  stats.LatencyHistogram
}

// metrics is the server's status registry: per-endpoint latency
// histograms plus per-error-kind counters. All methods are safe for
// concurrent use.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	kinds     map[string]int64
	// contract counts contracts answered within their bound, rejected
	// as infeasible (plan-time or after the ladder ran dry), and
	// escalated to a costlier rung than planned. Its ProgressiveRounds
	// is filled at read time from progRounds, which times every round a
	// progressive stream sends (handlers observe into it directly).
	contract   ContractStatusJSON
	progRounds stats.LatencyHistogram
}

func newMetrics() *metrics {
	return &metrics{
		endpoints: make(map[string]*endpointMetrics),
		kinds:     make(map[string]int64),
	}
}

// observe records one completed request.
func (m *metrics) observe(endpoint string, status int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	em := m.endpoints[endpoint]
	if em == nil {
		em = &endpointMetrics{statuses: make(map[int]int64)}
		m.endpoints[endpoint] = em
	}
	em.statuses[status]++
	em.latency.Observe(d)
}

// observeKind counts one error by taxonomy kind ("canceled", ...).
func (m *metrics) observeKind(kind string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.kinds[kind]++
}

// observeContract records one contract query's outcome.
func (m *metrics) observeContract(met, escalated bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if met {
		m.contract.MetTotal++
	} else {
		m.contract.InfeasibleTotal++
	}
	if escalated {
		m.contract.EscalatedTotal++
	}
}

// LatencyBucketJSON is one histogram bucket on the wire: requests with
// GeUS <= latency < LtUS microseconds. The last bucket of the format
// (ge_us 562341.33) absorbs every slower request, so it has no upper
// bound and LtUS is omitted on it.
type LatencyBucketJSON struct {
	GeUS  float64 `json:"ge_us"`
	LtUS  float64 `json:"lt_us,omitempty"`
	Count int64   `json:"count"`
}

// EndpointJSON is one endpoint's statusz entry.
type EndpointJSON struct {
	Requests int64 `json:"requests"`
	// Statuses counts responses by HTTP status code (JSON object keys
	// are the codes as strings).
	Statuses map[string]int64 `json:"statuses"`
	// LatencyUS is the latency histogram; zero-count buckets are
	// omitted.
	LatencyUS []LatencyBucketJSON `json:"latency_us"`
	// Latency is the same histogram whole, with its sum, for /metrics.
	Latency stats.LatencySnapshot `json:"-"`
}

// ContractStatusJSON is the contract-serving statusz entry.
type ContractStatusJSON struct {
	MetTotal        int64 `json:"met_total"`
	InfeasibleTotal int64 `json:"infeasible_total"`
	EscalatedTotal  int64 `json:"escalated_total"`
	// ProgressiveRounds counts refinement rounds streamed over SSE.
	ProgressiveRounds int64 `json:"progressive_rounds"`
}

// StatuszResponse is the body of GET /statusz. ShedTotal counts
// capacity sheds only (the admission gate); quota sheds are the
// distinct QuotaShedTotal — the two answer different operational
// questions ("server full" vs "client hot").
type StatuszResponse struct {
	UptimeSeconds  float64     `json:"uptime_seconds"`
	Ready          bool        `json:"ready"`
	Draining       bool        `json:"draining"`
	InFlight       int64       `json:"in_flight"`
	Queued         int64       `json:"queued"`
	ServedTotal    int64       `json:"served_total"`
	ShedTotal      int64       `json:"shed_total"`
	QueuedTotal    int64       `json:"queued_total"`
	Limit          int         `json:"concurrency_limit"`
	Tables         []string    `json:"tables"`
	Prepared       []string    `json:"prepared"`
	Cache          *CacheStats `json:"cache,omitempty"`
	QuotaShedTotal int64       `json:"quota_shed_total"`
	QuotaClients   int         `json:"quota_clients"`
	// Contract reports contract/progressive serving counters (absent
	// until the first contract or progressive request).
	Contract *ContractStatusJSON `json:"contract,omitempty"`
	// ProgressiveRounds is the per-round wall time of progressive
	// streams, for /metrics (Contract.ProgressiveRounds is its count).
	ProgressiveRounds stats.LatencySnapshot   `json:"-"`
	ErrorKinds        map[string]int64        `json:"error_kinds,omitempty"`
	Endpoints         map[string]EndpointJSON `json:"endpoints"`
	// Shards lists each sharded table's layout and per-shard scan
	// counters (absent when no table is sharded).
	Shards []shard.Snapshot `json:"shards,omitempty"`
	// Stores lists each disk-backed table's container and block-cache
	// counters (absent when no table is store-served).
	Stores []store.Snapshot `json:"stores,omitempty"`
	// Dist is the coordinator's fleet view — topology generation,
	// per-replica health and traffic counters (absent off-coordinator).
	Dist *dist.Snapshot `json:"dist,omitempty"`
	// QuotaLease is the replica's shared-quota lease state (absent when
	// quota is local).
	QuotaLease *dist.LeaseSnapshot `json:"quota_lease,omitempty"`
}

// fill reads the registry into st under one lock.
func (m *metrics) fill(st *StatuszResponse) {
	m.mu.Lock()
	defer m.mu.Unlock()
	st.Endpoints = make(map[string]EndpointJSON, len(m.endpoints))
	for name, em := range m.endpoints {
		lat := em.latency.Snapshot()
		ej := EndpointJSON{
			Requests: lat.Count,
			Statuses: make(map[string]int64, len(em.statuses)),
			Latency:  lat,
		}
		for code, n := range em.statuses {
			ej.Statuses[strconv.Itoa(code)] = n
		}
		for b, count := range lat.Counts {
			if count == 0 {
				continue
			}
			ge, lt := stats.LatencyBucketBoundsUS(b)
			bucket := LatencyBucketJSON{GeUS: math.Round(ge*100) / 100, Count: count}
			if !math.IsInf(lt, 1) {
				bucket.LtUS = math.Round(lt*100) / 100
			}
			ej.LatencyUS = append(ej.LatencyUS, bucket)
		}
		st.Endpoints[name] = ej
	}
	st.ErrorKinds = maps.Clone(m.kinds)
	st.ProgressiveRounds = m.progRounds.Snapshot()
	contract := m.contract
	contract.ProgressiveRounds = st.ProgressiveRounds.Count
	if contract != (ContractStatusJSON{}) {
		st.Contract = &contract
	}
}

// status reads the server's whole observable state once. /statusz is
// its JSON encoding and /metrics its Prometheus one, so the two
// surfaces report the same counters by construction.
func (s *Server) status() *StatuszResponse {
	tables := s.db.TableNames()
	sort.Strings(tables)
	st := &StatuszResponse{
		UptimeSeconds:  time.Since(s.start).Seconds(),
		Ready:          s.ready.Load(),
		Draining:       s.draining.Load(),
		InFlight:       s.gate.InFlight(),
		Queued:         s.gate.Queued(),
		ServedTotal:    s.gate.Served(),
		ShedTotal:      s.gate.Shed(),
		QueuedTotal:    s.gate.QueuedTotal(),
		Limit:          s.gate.Limit(),
		Tables:         tables,
		Prepared:       s.preparedNames(),
		QuotaShedTotal: s.quota.Shed(),
		QuotaClients:   s.quota.Clients(),
		Shards:         s.db.ShardSnapshots(),
		Stores:         s.db.StoreSnapshots(),
	}
	s.met.fill(st)
	if s.cfg.Coordinator != nil {
		snap := s.cfg.Coordinator.Snapshot()
		st.Dist = &snap
	}
	if s.cfg.QuotaLease != nil {
		snap := s.cfg.QuotaLease.Snapshot()
		st.QuotaLease = &snap
	}
	if s.cache != nil {
		cs := s.cache.Stats()
		st.Cache = &cs
	}
	return st
}
