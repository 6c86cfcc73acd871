// Package dist is aqppp's cross-process distributed execution
// subsystem: the wire schema and client half of the replica protocol.
// A replica is an aqppp-serve process owning one shard slice (its own
// columns, sample and BP-cube slice) that answers internal partial
// requests; the Coordinator implements the same fan-out/merge contract
// as the in-process shard layer (shard.Group) over the network, so
// distributed answers are bit-identical (exact) and CI-identical
// (approx) to in-process sharded answers. All floating-point payload
// crosses the wire as raw IEEE-754 bit patterns — JSON numbers would
// survive Go's shortest-round-trip encoding for finite values, but
// bits also carry infinities and NaN and make the bit-exactness
// contract self-evident.
package dist

import (
	"fmt"
	"math"

	"aqppp/internal/aqp"
	"aqppp/internal/core"
	"aqppp/internal/engine"
	"aqppp/internal/ident"
)

// WireVersion is the protocol version both sides assert on every
// message; a mismatch is a deploy-order bug, never silently tolerated.
const WireVersion = 1

// WireRange is one compiled predicate range (inclusive bounds, as
// bits).
type WireRange struct {
	Col    string `json:"col"`
	LoBits uint64 `json:"lo_bits"`
	HiBits uint64 `json:"hi_bits"`
}

// WireQuery is a compiled engine.Query in transit. The coordinator
// plans (parses, resolves, compiles) exactly once; replicas execute
// the compiled form without re-planning.
type WireQuery struct {
	Func    string      `json:"func"`
	Col     string      `json:"col,omitempty"`
	Ranges  []WireRange `json:"ranges,omitempty"`
	GroupBy []string    `json:"group_by,omitempty"`
}

// Partial-request modes.
const (
	ModeExact     = "exact"
	ModeApprox    = "approx"
	ModeGroups    = "groups"
	ModeBootstrap = "bootstrap"
)

// PartialRequest is the body of POST /v1/partial: one stratum's share
// of a distributed query.
type PartialRequest struct {
	V     int       `json:"v"`
	Mode  string    `json:"mode"`
	Table string    `json:"table"`
	Query WireQuery `json:"query"`
	// Handle names the replica-side prepared handle for approx and
	// bootstrap modes.
	Handle string `json:"handle,omitempty"`
	// Resamples/Seed drive bootstrap mode; Seed is already
	// stride-derived for the replica's shard index.
	Resamples int    `json:"resamples,omitempty"`
	Seed      uint64 `json:"seed,omitempty"`
	// TimeoutMS is the coordinator's remaining deadline, so the
	// replica's admission gate sheds work the caller can no longer use.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// WirePartial is engine.Partial in transit.
type WirePartial struct {
	N        int64  `json:"n"`
	SumBits  uint64 `json:"sum_bits"`
	Sum2Bits uint64 `json:"sum2_bits"`
	MinBits  uint64 `json:"min_bits"`
	MaxBits  uint64 `json:"max_bits"`
}

// WireGroupPartial is one exact group's partial.
type WireGroupPartial struct {
	Key     string      `json:"key"`
	Partial WirePartial `json:"partial"`
}

// WireAnswer is core.Answer in transit: the estimate's moments as
// bits, plus the identification diagnostics the merged answer reports.
type WireAnswer struct {
	ValueBits    uint64  `json:"value_bits"`
	HwBits       uint64  `json:"hw_bits"`
	Confidence   float64 `json:"confidence"`
	SampleRows   int     `json:"sample_rows"`
	PreLo        []int   `json:"pre_lo,omitempty"`
	PreHi        []int   `json:"pre_hi,omitempty"`
	PrePhi       bool    `json:"pre_phi"`
	PreValueBits uint64  `json:"pre_value_bits"`
	Candidates   int     `json:"candidates"`
}

// WireGroupAnswer is one approximate group's answer.
type WireGroupAnswer struct {
	Key    string     `json:"key"`
	Answer WireAnswer `json:"answer"`
}

// PartialResponse is the success body of POST /v1/partial.
type PartialResponse struct {
	V     int    `json:"v"`
	Shard int    `json:"shard"`
	Mode  string `json:"mode"`
	// Scalar/Groups carry exact-mode results.
	Scalar *WirePartial       `json:"scalar,omitempty"`
	Groups []WireGroupPartial `json:"groups,omitempty"`
	// Answer/AnswerGroups carry approx- and bootstrap-mode results.
	Answer       *WireAnswer       `json:"answer,omitempty"`
	AnswerGroups []WireGroupAnswer `json:"answer_groups,omitempty"`
	ElapsedUS    int64             `json:"elapsed_us"`
}

// ShardIdentity is the slice a replica owns: its index under the
// layout, the fleet size, and the layout column's observed bounds
// (meaningful only when Rows > 0) for coordinator-side pruning.
type ShardIdentity struct {
	Index    int    `json:"index"`
	Count    int    `json:"count"`
	Strategy string `json:"strategy"`
	Column   string `json:"column"`
	Rows     int    `json:"rows"`
	LoBits   uint64 `json:"lo_bits"`
	HiBits   uint64 `json:"hi_bits"`
}

// ColumnSchema is one column of a replica's slice as the handshake
// reports it: type, slice ordinal domain, and (for strings) the full
// dictionary — slices share the source table's dictionary verbatim, so
// any replica's copy resolves literal ranks globally.
type ColumnSchema struct {
	Name   string   `json:"name"`
	Type   string   `json:"type"`
	LoBits uint64   `json:"lo_bits"`
	HiBits uint64   `json:"hi_bits"`
	Dict   []string `json:"dict,omitempty"`
}

// HandleInfo describes one prepared handle a replica serves.
type HandleInfo struct {
	Name       string  `json:"name"`
	Confidence float64 `json:"confidence"`
	SampleRows int     `json:"sample_rows"`
}

// HelloResponse is the body of GET /v1/shard: the handshake a
// coordinator runs against each peer at startup.
type HelloResponse struct {
	V       int            `json:"v"`
	Table   string         `json:"table"`
	Shard   ShardIdentity  `json:"shard"`
	Columns []ColumnSchema `json:"columns"`
	Handles []HandleInfo   `json:"handles"`
}

// wireErrorBody mirrors the server's JSON error shape structurally
// (dist cannot import internal/server — the dependency points the
// other way).
type wireErrorBody struct {
	Error struct {
		Kind         string `json:"kind"`
		Message      string `json:"message"`
		RetryAfterMS int64  `json:"retry_after_ms"`
	} `json:"error"`
}

// ToWireQuery converts a compiled query for transit.
func ToWireQuery(q engine.Query) WireQuery {
	out := WireQuery{Func: q.Func.String(), Col: q.Col, GroupBy: q.GroupBy}
	for _, r := range q.Ranges {
		out.Ranges = append(out.Ranges, WireRange{
			Col: r.Col, LoBits: math.Float64bits(r.Lo), HiBits: math.Float64bits(r.Hi),
		})
	}
	return out
}

// FromWireQuery reconstructs the compiled query on the replica side.
func FromWireQuery(w WireQuery) (engine.Query, error) {
	f, err := parseAggFunc(w.Func)
	if err != nil {
		return engine.Query{}, err
	}
	q := engine.Query{Func: f, Col: w.Col, GroupBy: w.GroupBy}
	for _, r := range w.Ranges {
		q.Ranges = append(q.Ranges, engine.Range{
			Col: r.Col, Lo: math.Float64frombits(r.LoBits), Hi: math.Float64frombits(r.HiBits),
		})
	}
	return q, nil
}

func parseAggFunc(s string) (engine.AggFunc, error) {
	for _, f := range []engine.AggFunc{engine.Sum, engine.Count, engine.Avg, engine.Var, engine.Min, engine.Max} {
		if f.String() == s {
			return f, nil
		}
	}
	return 0, fmt.Errorf("dist: unknown aggregate %q", s)
}

// ToWirePartial converts an exact partial for transit.
func ToWirePartial(p engine.Partial) WirePartial {
	return WirePartial{
		N:        p.N,
		SumBits:  math.Float64bits(p.Sum),
		Sum2Bits: math.Float64bits(p.Sum2),
		MinBits:  math.Float64bits(p.Min),
		MaxBits:  math.Float64bits(p.Max),
	}
}

// FromWirePartial reconstructs an exact partial bit-for-bit.
func FromWirePartial(w WirePartial) engine.Partial {
	return engine.Partial{
		N:    w.N,
		Sum:  math.Float64frombits(w.SumBits),
		Sum2: math.Float64frombits(w.Sum2Bits),
		Min:  math.Float64frombits(w.MinBits),
		Max:  math.Float64frombits(w.MaxBits),
	}
}

// ToWireAnswer converts an approximate answer for transit.
func ToWireAnswer(a core.Answer) WireAnswer {
	return WireAnswer{
		ValueBits:    math.Float64bits(a.Estimate.Value),
		HwBits:       math.Float64bits(a.Estimate.HalfWidth),
		Confidence:   a.Estimate.Confidence,
		SampleRows:   a.Estimate.SampleRows,
		PreLo:        a.Pre.Lo,
		PreHi:        a.Pre.Hi,
		PrePhi:       a.Pre.Phi,
		PreValueBits: math.Float64bits(a.PreValue),
		Candidates:   a.Candidates,
	}
}

// FromWireAnswer reconstructs an approximate answer bit-for-bit.
func FromWireAnswer(w WireAnswer) core.Answer {
	return core.Answer{
		Estimate: aqp.Estimate{
			Value:      math.Float64frombits(w.ValueBits),
			HalfWidth:  math.Float64frombits(w.HwBits),
			Confidence: w.Confidence,
			SampleRows: w.SampleRows,
		},
		Pre:        ident.Pre{Lo: w.PreLo, Hi: w.PreHi, Phi: w.PrePhi},
		PreValue:   math.Float64frombits(w.PreValueBits),
		Candidates: w.Candidates,
	}
}
