package aqppp

import (
	"fmt"
	"sort"

	"aqppp/internal/core"
	"aqppp/internal/exec"
	"aqppp/internal/store"
)

// This file is the DB's disk-native persistence surface. SaveStore
// writes a registered table together with its prepared state (samples,
// BP-cubes, min/max indexes) into one store container; OpenStore opens
// the container again, registers a lazily-faulting table over it, and
// reconstitutes the preparations without rebuilding anything — restart
// cost is metadata, not sampling or cube scans.

// NamedPrep pairs a preparation with the handle name it persists (and
// reloads) under. Serving layers key handles by name, so the name round-
// trips through the container with the preparation.
type NamedPrep struct {
	Name string
	Prep *Prepared
}

// SaveStore persists a registered table and any preparations built over
// it to one store container at path. Preparations must be non-sharded
// and belong to the named table. The table must be resident (a table
// opened from a store is already persisted). An empty NamedPrep.Name
// falls back to the preparation's template label.
func (db *DB) SaveStore(path, table string, preps ...NamedPrep) error {
	tbl, err := db.Table(table)
	if err != nil {
		return err
	}
	sps := make([]store.Prep, len(preps))
	for i, np := range preps {
		p := np.Prep
		if p.proc == nil {
			return p.notResident("save", "persisting a preparation")
		}
		if p.tbl.Name != table {
			return &exec.Error{Kind: exec.Unsupported, Op: "save",
				Err: fmt.Errorf("preparation is over %q, not %q", p.tbl.Name, table)}
		}
		name := np.Name
		if name == "" {
			name = prepLabel(p.proc, i)
		}
		sps[i] = store.Prep{
			Name:       name,
			Sample:     p.proc.Sample,
			Sub:        p.proc.Sub,
			Cube:       p.proc.Cube,
			CountCube:  p.proc.CountCube,
			MinMax:     p.proc.MinMax,
			Confidence: p.proc.Confidence,
		}
	}
	return store.Write(path, tbl, sps)
}

// prepLabel names a persisted preparation after its template so store
// listings (/statusz) are readable.
func prepLabel(proc *core.Processor, i int) string {
	if proc.Cube != nil {
		return proc.Cube.Template.String()
	}
	return fmt.Sprintf("prep%d", i)
}

// OpenStore opens the container at path, registers its table (served
// from disk through the store's block cache) and returns the
// reconstituted preparations in the order they were saved, under their
// persisted names. No sample or cube is rebuilt, and no data block is
// read until a query needs it.
func (db *DB) OpenStore(path string) ([]NamedPrep, error) {
	s, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, err
	}
	tbl := s.Table()
	if err := db.Register(tbl); err != nil {
		_ = s.Close()
		return nil, err
	}
	db.mu.Lock()
	db.stores[tbl.Name] = s
	db.mu.Unlock()
	preps := make([]NamedPrep, len(s.Preps()))
	for i, sp := range s.Preps() {
		proc := &core.Processor{
			Sample:     sp.Sample,
			Sub:        sp.Sub,
			Cube:       sp.Cube,
			CountCube:  sp.CountCube,
			MinMax:     sp.MinMax,
			Confidence: sp.Confidence,
		}
		preps[i] = NamedPrep{Name: sp.Name, Prep: db.newResident(tbl, proc, core.BuildStats{})}
	}
	return preps, nil
}

// StoreFor returns the open store serving a registered table, if any.
func (db *DB) StoreFor(table string) (*store.Store, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	s, ok := db.stores[table]
	return s, ok
}

// StoreSnapshots describes every open store, sorted by table name, for
// observability surfaces.
func (db *DB) StoreSnapshots() []store.Snapshot {
	db.mu.RLock()
	stores := make([]*store.Store, 0, len(db.stores))
	for _, s := range db.stores {
		stores = append(stores, s)
	}
	db.mu.RUnlock()
	snaps := make([]store.Snapshot, len(stores))
	for i, s := range stores {
		snaps[i] = s.Snapshot()
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].Table < snaps[j].Table })
	return snaps
}

// CloseStores closes every open store. Queries against their tables
// fail from then on; call during shutdown after draining.
func (db *DB) CloseStores() error {
	db.mu.Lock()
	stores := db.stores
	db.stores = make(map[string]*store.Store)
	db.mu.Unlock()
	var first error
	for _, s := range stores {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
