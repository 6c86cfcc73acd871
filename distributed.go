package aqppp

import (
	"fmt"

	"aqppp/internal/engine"
	"aqppp/internal/exec"
)

// Fleet is a replica fleet as the registry sees it: something that
// hands out execution targets with one of its prepared handles bound
// in ("" binds none and serves exact plans). *dist.Coordinator
// implements it; the root package names only this interface so library
// users do not link the network stack.
type Fleet interface {
	Target(handle string) exec.Target
}

// RegisterDistributed registers a remote table: a zero-row schema table
// (typically dist.Coordinator.SchemaTable()) whose data lives on a
// replica fleet, with f answering every plan against it. Exact queries
// against the name scatter-gather over the network and merge
// bit-identically to the in-process sharded path; DistPrepared exposes
// the fleet's prepared handles for approximate queries.
func (db *DB) RegisterDistributed(tbl *engine.Table, f Fleet) error {
	return db.register(registered{tbl: tbl, target: f.Target(""), fleet: f})
}

// DistPrepared wraps one of a distributed table's prepared handles —
// built independently by every replica over its own slice — as a
// Prepared. Queries plan once against the schema table and fan out to
// the fleet; confidence and sampleRows describe the handle as the
// replicas reported it (dist.Coordinator.Handles()).
func (db *DB) DistPrepared(table, handle string, confidence float64, sampleRows int) (*Prepared, error) {
	e, err := db.lookup(table)
	if err != nil {
		return nil, err
	}
	if e.fleet == nil {
		return nil, &exec.Error{Kind: exec.Unsupported, Op: "prepare",
			Err: fmt.Errorf("table %q is not distributed", table)}
	}
	return &Prepared{
		db: db, tbl: e.tbl, target: e.fleet.Target(handle), conf: confidence,
		stats: PreprocessingStats{SampleRows: sampleRows},
		state: db.track(table),
	}, nil
}

// notResident is the ErrUnsupported-kind failure of operations that
// work on the sample and cube themselves, which only a resident
// preparation holds.
func (p *Prepared) notResident(op, what string) error {
	return &exec.Error{Kind: exec.Unsupported, Op: op,
		Err: fmt.Errorf("%s needs a resident preparation; table %q is sharded or distributed", what, p.tbl.Name)}
}
