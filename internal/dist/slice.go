package dist

import (
	"math"

	"aqppp/internal/engine"
	"aqppp/internal/shard"
)

// SliceTable carves the shard slice a replica owns out of a full table.
// It runs the same row assignment the in-process Partition runs —
// identical rows, identical within-shard source order — but gathers
// only the replica's own shard, then renames the slice back to the
// source table name, because a replica serves its slice as the table:
// its sample, BP-cube and queries all see one ordinary resident table.
// The returned identity is what the replica reports in its handshake.
func SliceTable(tbl *engine.Table, layout shard.Layout, index int) (*engine.Table, ShardIdentity, error) {
	sh, err := shard.PartitionOne(tbl, layout, index)
	if err != nil {
		return nil, ShardIdentity{}, err
	}
	slice, err := engine.NewTable(tbl.Name, sh.Table.Columns...)
	if err != nil {
		return nil, ShardIdentity{}, err
	}
	ident := ShardIdentity{
		Index:    index,
		Count:    layout.N,
		Strategy: layout.Strategy.String(),
		Column:   layout.Column,
		Rows:     sh.Rows,
		LoBits:   math.Float64bits(sh.Lo),
		HiBits:   math.Float64bits(sh.Hi),
	}
	return slice, ident, nil
}

// HelloFor assembles the handshake body a replica serves on GET
// /v1/shard: its identity plus its slice's column schemas (type, slice
// ordinal domain, string dictionaries verbatim).
func HelloFor(table *engine.Table, ident ShardIdentity, handles []HandleInfo) HelloResponse {
	hello := HelloResponse{V: WireVersion, Table: table.Name, Shard: ident, Handles: handles}
	for _, c := range table.Columns {
		lo, hi := c.OrdinalDomain()
		hello.Columns = append(hello.Columns, ColumnSchema{
			Name:   c.Name,
			Type:   c.Type.String(),
			LoBits: math.Float64bits(lo),
			HiBits: math.Float64bits(hi),
			Dict:   c.Dict,
		})
	}
	return hello
}
