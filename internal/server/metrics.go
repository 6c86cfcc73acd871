package server

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strings"

	"aqppp/internal/dist"
	"aqppp/internal/shard"
	"aqppp/internal/stats"
	"aqppp/internal/store"
)

// This file is the Prometheus text-format (version 0.0.4) encoding of
// the status snapshot (see Server.status): /statusz marshals the
// snapshot as JSON for humans and tests, /metrics renders the same
// value through promFamilies, the ordered table of every family the
// scrape can carry. Adding a metric is adding a field to the snapshot
// and a row to the table.

// promFamily is one row of the scrape: a family's metadata and how its
// series read off the snapshot.
type promFamily struct {
	name, typ, help string
	// when, if set, gates the family on a section of the snapshot being
	// present (a coordinator, sharded tables, ...).
	when   func(*StatuszResponse) bool
	series promSeries
}

// promSeries emits one family's samples off the snapshot: a rendered
// label list ("" for none) and a value — an integer or a float64, or for
// a histogram family a stats.LatencySnapshot.
type promSeries func(st *StatuszResponse, emit func(labels string, v any))

// promEscaper escapes a label value per the text-format rules.
var promEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// promLabel renders one label pair.
func promLabel(name, value string) string {
	return name + `="` + promEscaper.Replace(value) + `"`
}

// promSample writes one series; %v renders an integer or a float64 the
// way the format wants (integers integral, floats shortest round-trip,
// +Inf).
func promSample(b *bytes.Buffer, name, labels string, v any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	fmt.Fprintf(b, "%s%s %v\n", name, labels, v)
}

// promHistogram writes one latency histogram as cumulative le buckets in
// seconds plus _sum and _count. The format's last bucket has no upper
// bound (stats.LatencyBucketBoundsUS), so it is the +Inf bucket.
func promHistogram(b *bytes.Buffer, name, labels string, snap stats.LatencySnapshot) {
	prefix := labels
	if prefix != "" {
		prefix += ","
	}
	var cum int64
	for i, n := range snap.Counts {
		cum += n
		_, ltUS := stats.LatencyBucketBoundsUS(i)
		promSample(b, name+"_bucket", fmt.Sprintf(`%sle="%v"`, prefix, ltUS/1e6), cum)
	}
	promSample(b, name+"_sum", labels, snap.Sum.Seconds())
	promSample(b, name+"_count", labels, snap.Count)
}

// sortedKeys lists a map's keys in order, so the scrape is
// deterministic run to run. (HTTP status codes are all three digits, so
// they sort the same as text and as numbers.)
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// scalar is the series of an unlabelled one-sample family.
func scalar(read func(*StatuszResponse) any) promSeries {
	return func(st *StatuszResponse, emit func(string, any)) { emit("", read(st)) }
}

// fleet is the series of a one-sample family labelled with the
// coordinator's table.
func fleet(read func(*dist.Snapshot) any) promSeries {
	return func(st *StatuszResponse, emit func(string, any)) {
		emit(promLabel("table", st.Dist.Table), read(st.Dist))
	}
}

// perReplica is the series of a family with one sample per replica.
func perReplica(read func(dist.ReplicaSnapshot) any) promSeries {
	return func(st *StatuszResponse, emit func(string, any)) {
		for _, rp := range st.Dist.Replicas {
			emit(promLabel("replica", rp.URL), read(rp))
		}
	}
}

// perStore is the series of a family with one sample per store-backed
// table.
func perStore(read func(store.Snapshot) any) promSeries {
	return func(st *StatuszResponse, emit func(string, any)) {
		for _, sn := range st.Stores {
			emit(promLabel("table", sn.Table), read(sn))
		}
	}
}

// perShard is the series of a family with one sample per shard of every
// sharded table.
func perShard(read func(shard.ShardInfo) any) promSeries {
	return func(st *StatuszResponse, emit func(string, any)) {
		for _, sn := range st.Shards {
			for _, sh := range sn.Shards {
				emit(promLabel("table", sn.Table)+fmt.Sprintf(`,shard="%d"`, sh.Index), read(sh))
			}
		}
	}
}

// orZero reads a block /statusz omits while it is empty (the cache, the
// contract counters); /metrics reports those as zeros.
func orZero[T any](p *T) (v T) {
	if p != nil {
		v = *p
	}
	return v
}

func hasShards(st *StatuszResponse) bool { return len(st.Shards) > 0 }
func hasFleet(st *StatuszResponse) bool  { return st.Dist != nil }
func hasStores(st *StatuszResponse) bool { return len(st.Stores) > 0 }

func boolGauge(v bool) int {
	if v {
		return 1
	}
	return 0
}

// promFamilies is the scrape, in order. Every latency histogram shares
// stats.LatencyHistogram's buckets, so they line up on one dashboard.
var promFamilies = []promFamily{
	{"aqppp_uptime_seconds", "gauge", "Seconds since the server started.", nil, scalar(func(st *StatuszResponse) any { return st.UptimeSeconds })},
	{"aqppp_ready", "gauge", "1 while the server accepts new work, 0 once draining.", nil, scalar(func(st *StatuszResponse) any { return boolGauge(st.Ready) })},

	// Admission gate.
	{"aqppp_gate_in_flight", "gauge", "Requests currently holding an admission slot.", nil, scalar(func(st *StatuszResponse) any { return st.InFlight })},
	{"aqppp_gate_queued", "gauge", "Requests currently waiting for an admission slot.", nil, scalar(func(st *StatuszResponse) any { return st.Queued })},
	{"aqppp_gate_limit", "gauge", "Concurrency limit of the admission gate.", nil, scalar(func(st *StatuszResponse) any { return st.Limit })},
	{"aqppp_gate_served_total", "counter", "Requests that completed gated work.", nil, scalar(func(st *StatuszResponse) any { return st.ServedTotal })},
	{"aqppp_gate_shed_total", "counter", "Requests shed by the admission gate (capacity or deadline).", nil, scalar(func(st *StatuszResponse) any { return st.ShedTotal })},
	{"aqppp_gate_queued_total", "counter", "Requests that waited in the admission queue.", nil, scalar(func(st *StatuszResponse) any { return st.QueuedTotal })},

	// Response cache.
	{"aqppp_cache_hits_total", "counter", "Response cache hits (served without touching the gate).", nil, scalar(func(st *StatuszResponse) any { return orZero(st.Cache).Hits })},
	{"aqppp_cache_misses_total", "counter", "Response cache misses.", nil, scalar(func(st *StatuszResponse) any { return orZero(st.Cache).Misses })},
	{"aqppp_cache_evictions_total", "counter", "Response cache entries evicted by size or TTL.", nil, scalar(func(st *StatuszResponse) any { return orZero(st.Cache).Evictions })},
	{"aqppp_cache_entries", "gauge", "Response cache resident entries.", nil, scalar(func(st *StatuszResponse) any { return orZero(st.Cache).Entries })},
	{"aqppp_cache_bytes", "gauge", "Response cache resident bytes (accounting estimate).", nil, scalar(func(st *StatuszResponse) any { return orZero(st.Cache).Bytes })},

	// Per-client quota.
	{"aqppp_quota_shed_total", "counter", "Requests shed for exceeding a per-client quota.", nil, scalar(func(st *StatuszResponse) any { return st.QuotaShedTotal })},
	{"aqppp_quota_clients", "gauge", "Client token buckets currently tracked.", nil, scalar(func(st *StatuszResponse) any { return st.QuotaClients })},

	// Contract serving.
	{"aqppp_contract_met_total", "counter", "Contract queries answered within their error bound.", nil, scalar(func(st *StatuszResponse) any { return orZero(st.Contract).MetTotal })},
	{"aqppp_contract_infeasible_total", "counter", "Contract queries rejected as infeasible (422).", nil, scalar(func(st *StatuszResponse) any { return orZero(st.Contract).InfeasibleTotal })},
	{"aqppp_contract_escalated_total", "counter", "Contract queries that needed a costlier rung than planned.", nil, scalar(func(st *StatuszResponse) any { return orZero(st.Contract).EscalatedTotal })},

	// Errors and per-endpoint traffic.
	{"aqppp_errors_total", "counter", "Errors by taxonomy kind.", nil,
		func(st *StatuszResponse, emit func(string, any)) {
			for _, kind := range sortedKeys(st.ErrorKinds) {
				emit(promLabel("kind", kind), st.ErrorKinds[kind])
			}
		}},
	{"aqppp_http_requests_total", "counter", "HTTP requests by endpoint and status code.", nil,
		func(st *StatuszResponse, emit func(string, any)) {
			for _, ep := range sortedKeys(st.Endpoints) {
				statuses := st.Endpoints[ep].Statuses
				for _, code := range sortedKeys(statuses) {
					emit(promLabel("endpoint", ep)+","+promLabel("status", code), statuses[code])
				}
			}
		}},
	{"aqppp_http_request_duration_seconds", "histogram", "Request wall time by endpoint (log-scale buckets, 1µs–1s).", nil,
		func(st *StatuszResponse, emit func(string, any)) {
			for _, ep := range sortedKeys(st.Endpoints) {
				emit(promLabel("endpoint", ep), st.Endpoints[ep].Latency)
			}
		}},
	{"aqppp_progressive_round_duration_seconds", "histogram", "Progressive stream per-round wall time (log-scale buckets, 1µs–1s).", nil, scalar(func(st *StatuszResponse) any { return st.ProgressiveRounds })},

	// Sharded tables: layout gauges, pruning counters, per-shard scans.
	{"aqppp_shard_rows", "gauge", "Rows resident in each shard of a sharded table.", hasShards, perShard(func(sh shard.ShardInfo) any { return sh.Rows })},
	{"aqppp_shards_pruned_total", "counter", "Shard scans skipped by range-bound pruning.", hasShards,
		func(st *StatuszResponse, emit func(string, any)) {
			for _, sn := range st.Shards {
				emit(promLabel("table", sn.Table), sn.Pruned)
			}
		}},
	{"aqppp_shard_scan_duration_seconds", "histogram", "Per-shard sub-plan scan time (log-scale buckets, 1µs–1s).", hasShards, perShard(func(sh shard.ShardInfo) any { return sh.Latency })},

	// Distributed fleet (coordinator only): pruning and
	// per-replica traffic.
	{"aqppp_dist_pruned_total", "counter", "Replica requests skipped by range-bound pruning.", hasFleet, fleet(func(sn *dist.Snapshot) any { return sn.Pruned })},
	{"aqppp_replica_healthy", "gauge", "1 while the replica's last partial round trip succeeded.", hasFleet, perReplica(func(rp dist.ReplicaSnapshot) any { return boolGauge(rp.Healthy) })},
	{"aqppp_replica_requests_total", "counter", "Partial-request attempts per replica.", hasFleet, perReplica(func(rp dist.ReplicaSnapshot) any { return rp.Requests })},
	{"aqppp_replica_retries_total", "counter", "Partial-request retries per replica.", hasFleet, perReplica(func(rp dist.ReplicaSnapshot) any { return rp.Retries })},
	{"aqppp_replica_failures_total", "counter", "Partial requests that exhausted every attempt per replica.", hasFleet, perReplica(func(rp dist.ReplicaSnapshot) any { return rp.Failures })},
	{"aqppp_replica_shed_total", "counter", "Partial requests the replica shed with 429 per replica.", hasFleet, perReplica(func(rp dist.ReplicaSnapshot) any { return rp.Shed })},
	{"aqppp_replica_request_duration_seconds", "histogram", "Successful partial round-trip time per replica (log-scale buckets, 1µs–1s).", hasFleet, perReplica(func(rp dist.ReplicaSnapshot) any { return rp.Latency })},

	// Disk-backed stores. A miss is one disk read + decode; blocks the
	// zone maps prune appear in neither counter.
	{"aqppp_store_cache_hits_total", "counter", "Store block-cache hits by table.", hasStores, perStore(func(sn store.Snapshot) any { return sn.Cache.Hits })},
	{"aqppp_store_cache_misses_total", "counter", "Store block-cache misses (each one disk read + decode) by table.", hasStores, perStore(func(sn store.Snapshot) any { return sn.Cache.Misses })},
	{"aqppp_store_cache_evictions_total", "counter", "Store block-cache evictions by table.", hasStores, perStore(func(sn store.Snapshot) any { return sn.Cache.Evictions })},
	{"aqppp_store_cache_resident_bytes", "gauge", "Decoded blocks resident in the store cache by table.", hasStores, perStore(func(sn store.Snapshot) any { return sn.Cache.ResidentBytes })},
	{"aqppp_store_file_bytes", "gauge", "Store container size on disk by table.", hasStores, perStore(func(sn store.Snapshot) any { return sn.FileBytes })},
}

// renderMetrics encodes a status snapshot as Prometheus text.
func renderMetrics(st *StatuszResponse) []byte {
	var b bytes.Buffer
	for _, f := range promFamilies {
		if f.when != nil && !f.when(st) {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		f.series(st, func(labels string, v any) {
			if snap, ok := v.(stats.LatencySnapshot); ok {
				promHistogram(&b, f.name, labels, snap)
			} else {
				promSample(&b, f.name, labels, v)
			}
		})
	}
	return b.Bytes()
}

// handleMetrics answers GET /metrics with the Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request, ri *reqInfo) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = w.Write(renderMetrics(s.status()))
}
