package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"time"

	"aqppp/internal/engine"
	"aqppp/internal/shard"
)

// dialRetryEvery paces handshake retries while a peer is still coming
// up; Dial keeps trying each unreachable peer until ctx expires.
const dialRetryEvery = 100 * time.Millisecond

// Dial handshakes with every peer, validates that together they form
// exactly one consistent fleet, and assembles the Coordinator: replicas
// sorted by shard index, the zero-row schema table (column types and
// dictionaries from the fleet, ordinal domains unioned across slices),
// and the prepared handles every replica serves. Peers that are not up
// yet are retried until ctx expires — replica and coordinator processes
// start concurrently.
func Dial(ctx context.Context, peers []string, cfg Config) (*Coordinator, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("dist: no peers to dial")
	}
	client := cfg.Client
	if client == nil {
		client = http.DefaultClient
	}
	hellos := make([]HelloResponse, len(peers))
	for i, peer := range peers {
		h, err := helloRetry(ctx, client, peer)
		if err != nil {
			return nil, fmt.Errorf("dist: handshake with %s: %w", peer, err)
		}
		hellos[i] = h
	}
	return assemble(peers, hellos, cfg)
}

// helloRetry fetches one peer's handshake, retrying while it is
// unreachable or still loading.
func helloRetry(ctx context.Context, client *http.Client, peer string) (HelloResponse, error) {
	var lastErr error
	for {
		h, err := helloOnce(ctx, client, peer)
		if err == nil {
			return h, nil
		}
		lastErr = err
		select {
		case <-ctx.Done():
			return HelloResponse{}, fmt.Errorf("%w (last attempt: %v)", ctx.Err(), lastErr)
		case <-time.After(dialRetryEvery):
		}
	}
}

func helloOnce(ctx context.Context, client *http.Client, peer string) (HelloResponse, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/shard", nil)
	if err != nil {
		return HelloResponse{}, err
	}
	status, _, data, err := roundTrip(client, req, maxPartialBody)
	if err != nil {
		return HelloResponse{}, err
	}
	if status != http.StatusOK {
		return HelloResponse{}, fmt.Errorf("status %d: %s", status, data)
	}
	var h HelloResponse
	if err := json.Unmarshal(data, &h); err != nil {
		return HelloResponse{}, fmt.Errorf("malformed handshake: %w", err)
	}
	if h.V != WireVersion {
		return HelloResponse{}, fmt.Errorf("peer speaks wire v%d, coordinator v%d", h.V, WireVersion)
	}
	return h, nil
}

// assemble validates the fleet and builds the Coordinator.
func assemble(peers []string, hellos []HelloResponse, cfg Config) (*Coordinator, error) {
	first := hellos[0]
	strategy, err := parseStrategy(first.Shard.Strategy)
	if err != nil {
		return nil, err
	}
	layout := shard.Layout{Strategy: strategy, Column: first.Shard.Column, N: first.Shard.Count}
	if layout.N != len(peers) {
		return nil, fmt.Errorf("dist: fleet declares %d shards but %d peers were dialed", layout.N, len(peers))
	}
	seen := make(map[int]string, len(peers))
	replicas := make([]*replica, 0, len(peers))
	for i, h := range hellos {
		if h.Table != first.Table {
			return nil, fmt.Errorf("dist: peer %s serves table %q, fleet serves %q", peers[i], h.Table, first.Table)
		}
		if h.Shard.Strategy != first.Shard.Strategy || h.Shard.Column != first.Shard.Column || h.Shard.Count != first.Shard.Count {
			return nil, fmt.Errorf("dist: peer %s declares layout %s:%s:%d, fleet is %s",
				peers[i], h.Shard.Strategy, h.Shard.Column, h.Shard.Count, layout.Signature())
		}
		if prev, dup := seen[h.Shard.Index]; dup {
			return nil, fmt.Errorf("dist: peers %s and %s both claim shard %d", prev, peers[i], h.Shard.Index)
		}
		if h.Shard.Index < 0 || h.Shard.Index >= layout.N {
			return nil, fmt.Errorf("dist: peer %s claims shard %d outside layout of %d", peers[i], h.Shard.Index, layout.N)
		}
		seen[h.Shard.Index] = peers[i]
		r := &replica{url: peers[i], ident: h.Shard}
		r.healthy.Store(true)
		replicas = append(replicas, r)
	}
	sort.Slice(replicas, func(i, j int) bool { return replicas[i].ident.Index < replicas[j].ident.Index })

	schema, err := schemaTable(first.Table, hellos)
	if err != nil {
		return nil, err
	}
	handles, err := sharedHandles(hellos)
	if err != nil {
		return nil, err
	}
	return &Coordinator{
		cfg:      cfg,
		table:    first.Table,
		layout:   layout,
		schema:   schema,
		replicas: replicas,
		handles:  handles,
	}, nil
}

func parseStrategy(s string) (shard.Strategy, error) {
	switch s {
	case shard.ByRange.String():
		return shard.ByRange, nil
	case shard.ByHash.String():
		return shard.ByHash, nil
	default:
		return 0, fmt.Errorf("dist: unknown shard strategy %q", s)
	}
}

func parseColType(s string) (engine.ColType, error) {
	for _, t := range []engine.ColType{engine.Int64, engine.Float64, engine.String} {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown column type %q", s)
}

// schemaTable builds the coordinator's zero-row planning table: one
// schema column per fleet column, ordinal domains unioned across slices
// (empty slices report an inverted domain and are skipped), and string
// dictionaries taken from the first peer — every slice shares the
// source table's dictionary verbatim, so any copy is globally correct,
// but the lengths are still cross-checked to catch a mixed fleet.
func schemaTable(table string, hellos []HelloResponse) (*engine.Table, error) {
	first := hellos[0]
	cols := make([]*engine.Column, 0, len(first.Columns))
	for ci, cs := range first.Columns {
		typ, err := parseColType(cs.Type)
		if err != nil {
			return nil, fmt.Errorf("dist: column %q: %w", cs.Name, err)
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for hi2, h := range hellos {
			if ci >= len(h.Columns) || h.Columns[ci].Name != cs.Name || h.Columns[ci].Type != cs.Type {
				return nil, fmt.Errorf("dist: peers disagree on column %d (%q)", ci, cs.Name)
			}
			if len(h.Columns[ci].Dict) != len(cs.Dict) {
				return nil, fmt.Errorf("dist: peers %d and 0 disagree on dictionary of %q", hi2, cs.Name)
			}
			clo := math.Float64frombits(h.Columns[ci].LoBits)
			chi := math.Float64frombits(h.Columns[ci].HiBits)
			if chi < clo {
				continue // empty slice: no observed domain
			}
			lo = math.Min(lo, clo)
			hi = math.Max(hi, chi)
		}
		if hi < lo {
			// Every slice is empty: keep the canonical empty domain.
			lo, hi = 0, -1
		}
		cols = append(cols, engine.NewSchemaColumn(cs.Name, typ, cs.Dict, lo, hi))
	}
	return engine.NewTable(table, cols...)
}

// sharedHandles intersects the peers' prepared handles: a handle is
// usable only when every replica serves it at the same confidence. The
// reported sample size is the fleet total.
func sharedHandles(hellos []HelloResponse) ([]HandleInfo, error) {
	var out []HandleInfo
	for _, h := range hellos[0].Handles {
		total := h.SampleRows
		everywhere := true
		for _, other := range hellos[1:] {
			found := false
			for _, oh := range other.Handles {
				if oh.Name == h.Name {
					if math.Float64bits(oh.Confidence) != math.Float64bits(h.Confidence) {
						return nil, fmt.Errorf("dist: handle %q prepared at confidence %g and %g across the fleet",
							h.Name, h.Confidence, oh.Confidence)
					}
					total += oh.SampleRows
					found = true
					break
				}
			}
			if !found {
				everywhere = false
				break
			}
		}
		if everywhere {
			out = append(out, HandleInfo{Name: h.Name, Confidence: h.Confidence, SampleRows: total})
		}
	}
	return out, nil
}
