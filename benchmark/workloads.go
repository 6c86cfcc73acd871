package main

import (
	"fmt"
	"strconv"
)

// shape is how the server under test is deployed.
type shape int

const (
	shapeResident shape = iota // one process, table in memory
	shapeStore                 // one process serving a .aqps container from disk
	shapeSharded               // one process, -shards N
	shapeFleet                 // N -replica processes + one -coordinator
)

// Server-side constants shared by every shape: the data seed (fixed, so
// the served table and the oracle's are the same table whatever the
// workload seed) and the startup handle of ISSUE 11.
const (
	dataSeed   = 42
	cellBudget = 5000
	shardCol   = "l_shipdate"
)

var handleDims = []string{"l_shipdate", "l_suppkey"}

// spec is one workload: a deployment shape, a table size and a traffic
// mix. Sizes are chosen so that one run (set-up three times, warm-up,
// the measured window, the oracle's own scans) ends in about twenty
// seconds on two cores; README.md states them next to the sizes of the
// program's caches.
type spec struct {
	Name   string
	Shape  shape
	Rows   int
	Shards int
	Mix    []mixEntry
	// SampleRate is the startup handle's -sample-rate.
	SampleRate float64
	// BasePerFamily is how many base queries workload.Generate draws per
	// family; QualityQueries how many approximate answers the quality
	// pass compares with the truth.
	BasePerFamily  int
	QualityQueries int
}

// Store-cold rotates the exact predicate over these columns and the
// measure over storeMeasures, so the decoded working set is every
// numeric column of the table: 11 columns x 8 B x 1.5 M rows = 132 MB,
// twice the store's 64 MiB block cache.
var (
	storePredicateCols = []string{
		"l_orderkey", "l_partkey", "l_suppkey", "l_linenumber", "l_discount",
		"l_tax", "l_commitdate", "l_receiptdate",
	}
	storeMeasures = []string{"l_extendedprice", "l_quantity"}
)

func specs(smoke bool) []spec {
	all := []spec{
		{
			Name: "resident-distinct", Shape: shapeResident, Rows: 300000,
			Mix: []mixEntry{
				{classApprox, 57}, {classExact, 20}, {classGroupBy, 8},
				{classContract, 10}, {classProgressive, 2}, {classBootstrap, 3},
			},
			BasePerFamily: 600, QualityQueries: 600,
		},
		{
			Name: "resident-repeat", Shape: shapeResident, Rows: 300000,
			Mix:           []mixEntry{{classRepeat, 90}, {classApprox, 5}, {classExact, 5}},
			BasePerFamily: 600, QualityQueries: 600,
		},
		{
			Name: "store-cold", Shape: shapeStore, Rows: 1500000,
			// No contract class here: on a 15,000-row sample one escalation
			// in a dozen runs to a bootstrap of a second and more, and two
			// or three of those were a third of a window's time.
			Mix:           []mixEntry{{classExact, 50}, {classApprox, 50}},
			BasePerFamily: 300, QualityQueries: 300,
		},
		{
			Name: "sharded-local", Shape: shapeSharded, Rows: 300000, Shards: 4,
			Mix: []mixEntry{
				{classApprox, 45}, {classExact, 35}, {classGroupBy, 10}, {classBootstrap, 10},
			},
			BasePerFamily: 300, QualityQueries: 600,
		},
		{
			Name: "fleet", Shape: shapeFleet, Rows: 300000, Shards: 2,
			Mix: []mixEntry{
				{classApprox, 45}, {classExact, 35}, {classGroupBy, 10}, {classBootstrap, 10},
			},
			BasePerFamily: 300, QualityQueries: 600,
		},
	}
	for i := range all {
		all[i].SampleRate = 0.01
	}
	if smoke {
		// A 1 % sample of 5,000 rows is 50 rows, too few for any
		// interval; the smoke sizes keep the sample near a thousand.
		for i := range all {
			all[i].Rows = 5000
			all[i].SampleRate = 0.2
			all[i].BasePerFamily = 20
			all[i].QualityQueries = 20
		}
	}
	return all
}

func specByName(name string, smoke bool) (spec, error) {
	for _, s := range specs(smoke) {
		if s.Name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// drawFamilies draws the base queries of every class in the mix. All
// classes of a workload share the same base queries (a class changes
// the endpoint, not the predicate), except where the shape calls for
// its own: store-cold's exact class rotates columns, and the sharded
// shapes split every class into a pruned and an unpruned half.
func (s spec) drawFamilies(seed uint64) (map[string][]family, error) {
	design := designTable(s.Rows, dataSeed)
	n := s.BasePerFamily
	main, err := drawFamily(design, "", measureCol, "l_shipdate", "l_suppkey", n, seed)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]family)
	approxLike := []family{main}
	exact := []family{main}
	switch s.Shape {
	case shapeSharded, shapeFleet:
		// A window on the shard column lets range bounds prune shards;
		// a window on l_commitdate selects almost the same rows but
		// names no shard column, so every shard is scanned and merged.
		main.Tag = "pruned"
		unpruned, err := drawFamily(design, "unpruned", measureCol, "l_commitdate", "l_suppkey", n, seed+1)
		if err != nil {
			return nil, err
		}
		approxLike = []family{main, unpruned}
		exact = approxLike
	case shapeStore:
		// The rotation shares one family's worth of base queries: an
		// exact scan's cost depends on which columns it touches, not on
		// which rows it selects.
		exact = nil
		per := n/len(storePredicateCols) + 1
		for i, col := range storePredicateCols {
			f, err := drawFamily(design, "", storeMeasures[i%len(storeMeasures)], "l_shipdate", col, per, seed+2+uint64(i))
			if err != nil {
				return nil, err
			}
			exact = append(exact, f)
		}
	}
	for _, m := range s.Mix {
		switch m.Class {
		case classExact:
			out[classExact] = exact
		case classRepeat:
			out[classApprox], out[classExact] = approxLike, exact
		default:
			out[m.Class] = approxLike
		}
	}
	// The quality pass always needs approx queries.
	out[classApprox] = approxLike
	return out, nil
}

// serveFlags generate the table and build the startup handle: what
// every shape but the store-served one starts from.
func (s spec) serveFlags() []string {
	return []string{
		"-demo", "tpcd", "-rows", strconv.Itoa(s.Rows), "-seed", strconv.Itoa(dataSeed),
		"-agg", measureCol, "-dims", handleDims[0] + "," + handleDims[1],
		"-sample-rate", strconv.FormatFloat(s.SampleRate, 'g', -1, 64),
		"-k", strconv.Itoa(cellBudget), "-minmax",
	}
}
