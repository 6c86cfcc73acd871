package dist

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/shard"
	"aqppp/internal/stats"
)

// replica is the coordinator's view of one peer: its identity from the
// handshake plus per-replica traffic counters and the wall time of each
// partial the shard.Group ran against it (retries included).
type replica struct {
	url   string
	ident ShardIdentity

	requests atomic.Uint64
	retries  atomic.Uint64
	failures atomic.Uint64
	shed     atomic.Uint64
	healthy  atomic.Bool

	latency stats.LatencyHistogram
}

// Coordinator implements the shard fan-out contract over the network:
// it owns the fleet topology discovered by Dial, builds shard.Groups
// whose executors are remote replicas, and hands out exec.Targets
// (see Target) so plans run on it exactly like they run on in-process
// shards. Because the Group — pruning, fan-out, algebraic exact merge,
// stratified CI merge — is byte-for-byte the code the in-process path
// runs, distributed answers are bit-identical (exact) and CI-identical
// (approx) to their in-process sharded counterparts.
type Coordinator struct {
	cfg      Config
	table    string
	layout   shard.Layout
	schema   *engine.Table
	replicas []*replica // ascending by shard index, one per shard
	handles  []HandleInfo

	pruned atomic.Uint64
}

// Table reports the logical (source) table name the fleet serves.
func (c *Coordinator) Table() string { return c.table }

// SchemaTable returns the zero-row schema table Dial assembled from
// the fleet: full column set with dictionaries and unioned ordinal
// domains, so the SQL compiler resolves unbounded predicate sides and
// string literals exactly as it would against the resident table.
func (c *Coordinator) SchemaTable() *engine.Table { return c.schema }

// Handles lists the prepared handles every replica serves.
func (c *Coordinator) Handles() []HandleInfo { return c.handles }

// Layout reports the fleet's shard layout.
func (c *Coordinator) Layout() shard.Layout { return c.layout }

func (c *Coordinator) confidenceFor(handle string) float64 {
	for _, h := range c.handles {
		if h.Name == handle {
			return h.Confidence
		}
	}
	return 0.95
}

// group builds the shared fan-out/merge engine over the fleet.
func (c *Coordinator) group(handle string) *shard.Group {
	execs := make([]shard.Executor, len(c.replicas))
	for i, r := range c.replicas {
		execs[i] = &remoteExec{c: c, r: r, handle: handle}
	}
	return &shard.Group{
		Layout:     c.layout,
		Confidence: c.confidenceFor(handle),
		Execs:      execs,
		Observe:    func(k int, d time.Duration) { c.replicas[k].latency.Observe(d) },
		OnPrune:    func(int) { c.pruned.Add(1) },
	}
}

// Target returns the fleet as an execution target whose approximate
// plans answer through the named prepared handle on every active
// replica. "" names no handle: it serves exact plans, and the replicas
// refuse an approximate plan through it as an unknown handle.
func (c *Coordinator) Target(handle string) exec.Target {
	return fleetTarget{c: c, handle: handle}
}

// fleetTarget is a Coordinator with one prepared handle bound in.
type fleetTarget struct {
	c      *Coordinator
	handle string
}

// Exact implements exec.Target. A lost replica is an Unavailable
// error, as it is for every plan: each active stratum answers or the
// query fails.
func (t fleetTarget) Exact(ctx context.Context, q engine.Query) (engine.Result, error) {
	return t.c.group("").Exact(ctx, q)
}

// Approx implements exec.Target.
func (t fleetTarget) Approx(ctx context.Context, q engine.Query) (core.Answer, error) {
	return t.c.group(t.handle).Answer(ctx, q)
}

// ApproxGroups implements exec.Target.
func (t fleetTarget) ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error) {
	return t.c.group(t.handle).AnswerGroups(ctx, q)
}

// Bootstrap implements exec.Target with per-replica bootstrap streams.
func (t fleetTarget) Bootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error) {
	return t.c.group(t.handle).AnswerBootstrap(ctx, q, resamples, seed)
}

// remoteExec adapts one replica to shard.Executor: each method is one
// partial request over the wire, decoded bit-for-bit.
type remoteExec struct {
	c      *Coordinator
	r      *replica
	handle string
}

// Info implements shard.Executor.
func (e *remoteExec) Info() shard.ExecutorInfo {
	return shard.ExecutorInfo{
		Index: e.r.ident.Index,
		Rows:  e.r.ident.Rows,
		Lo:    math.Float64frombits(e.r.ident.LoBits),
		Hi:    math.Float64frombits(e.r.ident.HiBits),
	}
}

func (e *remoteExec) request(ctx context.Context, mode string, q engine.Query) *PartialRequest {
	return &PartialRequest{
		V:         WireVersion,
		Mode:      mode,
		Table:     e.c.table,
		Query:     ToWireQuery(q),
		Handle:    e.handle,
		TimeoutMS: timeoutMSFrom(ctx),
	}
}

// ExactPartial implements shard.Executor.
func (e *remoteExec) ExactPartial(ctx context.Context, q engine.Query) (engine.PartialResult, error) {
	pr, err := e.c.postPartial(ctx, e.r, e.request(ctx, ModeExact, q))
	if err != nil {
		return engine.PartialResult{}, err
	}
	var out engine.PartialResult
	if pr.Scalar != nil {
		out.Scalar = FromWirePartial(*pr.Scalar)
	}
	for _, g := range pr.Groups {
		out.Groups = append(out.Groups, engine.GroupPartial{Key: g.Key, Partial: FromWirePartial(g.Partial)})
	}
	return out, nil
}

// ApproxAnswer implements shard.Executor.
func (e *remoteExec) ApproxAnswer(ctx context.Context, q engine.Query) (core.Answer, error) {
	pr, err := e.c.postPartial(ctx, e.r, e.request(ctx, ModeApprox, q))
	if err != nil {
		return core.Answer{}, err
	}
	if pr.Answer == nil {
		return core.Answer{}, &exec.Error{Kind: exec.Internal, Op: "query",
			Err: fmt.Errorf("replica %s returned no answer for approx partial", e.r.url)}
	}
	return FromWireAnswer(*pr.Answer), nil
}

// ApproxGroups implements shard.Executor.
func (e *remoteExec) ApproxGroups(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error) {
	pr, err := e.c.postPartial(ctx, e.r, e.request(ctx, ModeGroups, q))
	if err != nil {
		return nil, err
	}
	out := make([]core.GroupAnswer, 0, len(pr.AnswerGroups))
	for _, g := range pr.AnswerGroups {
		out = append(out, core.GroupAnswer{Key: g.Key, Answer: FromWireAnswer(g.Answer)})
	}
	return out, nil
}

// ApproxBootstrap implements shard.Executor.
func (e *remoteExec) ApproxBootstrap(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error) {
	req := e.request(ctx, ModeBootstrap, q)
	req.Resamples = resamples
	req.Seed = seed
	pr, err := e.c.postPartial(ctx, e.r, req)
	if err != nil {
		return core.Answer{}, err
	}
	if pr.Answer == nil {
		return core.Answer{}, &exec.Error{Kind: exec.Internal, Op: "bootstrap",
			Err: fmt.Errorf("replica %s returned no answer for bootstrap partial", e.r.url)}
	}
	return FromWireAnswer(*pr.Answer), nil
}

// ReplicaSnapshot is one replica's observable state for /statusz and
// /metrics.
type ReplicaSnapshot struct {
	URL      string `json:"url"`
	Index    int    `json:"index"`
	Rows     int    `json:"rows"`
	Healthy  bool   `json:"healthy"`
	Requests uint64 `json:"requests"`
	Retries  uint64 `json:"retries"`
	Failures uint64 `json:"failures"`
	Shed     uint64 `json:"shed"`
	// Latency is the replica's round-trip histogram; /metrics renders it.
	Latency stats.LatencySnapshot `json:"-"`
}

// Snapshot is the fleet's point-in-time topology and traffic view.
type Snapshot struct {
	Table    string            `json:"table"`
	Layout   string            `json:"layout"`
	Pruned   uint64            `json:"pruned"`
	Handles  []HandleInfo      `json:"handles,omitempty"`
	Replicas []ReplicaSnapshot `json:"replicas"`
}

// Snapshot captures the fleet state.
func (c *Coordinator) Snapshot() Snapshot {
	snap := Snapshot{
		Table:   c.table,
		Layout:  c.layout.Signature(),
		Pruned:  c.pruned.Load(),
		Handles: c.handles,
	}
	for _, r := range c.replicas {
		snap.Replicas = append(snap.Replicas, ReplicaSnapshot{
			URL: r.url, Index: r.ident.Index, Rows: r.ident.Rows,
			Healthy:  r.healthy.Load(),
			Requests: r.requests.Load(), Retries: r.retries.Load(),
			Failures: r.failures.Load(), Shed: r.shed.Load(),
			Latency: r.latency.Snapshot(),
		})
	}
	return snap
}
