package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"aqppp/internal/cube"
	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/stats"
	"aqppp/internal/workload"
)

// Request classes. A class is one kind of traffic: an endpoint plus the
// body fields that select the answer path behind it.
const (
	classApprox      = "approx"
	classExact       = "exact"
	classGroupBy     = "groupby"
	classContract    = "contract"
	classBootstrap   = "bootstrap"
	classProgressive = "progressive"
	classRepeat      = "repeat"
)

// Fixed request parameters. A contract asks for ±20 % and allows
// escalation to an exact scan, so it is always feasible: a 1 % sample
// cannot promise a tight bound on every 0.5 % selection, an infeasible
// contract is a 422 (which the benchmark would have to count as a
// failure), and at ±20 % escalations are rare enough that the second-long
// ones do not decide a run's throughput. A progressive stream ends when
// its interval reaches ±2 % or after progressiveMaxRounds rounds, which
// bounds its cost at a twelfth of the table. The bootstrap is small
// enough to stay interactive, and the repeat pool is far smaller than
// the response cache.
const (
	contractRelError     = 0.20
	progressiveRelError  = 0.02
	progressiveMaxRounds = 4
	bootstrapResamples   = 50
	repeatPoolSize       = 64
	repeatZipf           = 1.1
	handleName           = "default"
	tableName            = "lineitem"
	measureCol           = "l_extendedprice"
	shipDays             = 2526 // domain of l_shipdate in dataset.TPCDSkew
)

// jitterSide is the number of distinct shifts per window endpoint: a
// base query yields jitterSide² statements that differ only by a few
// days on their date range, so every statement of a run is distinct
// (the response cache can never hit) while selectivity stays within a
// few percent of the band the base query was drawn for.
const jitterSide = 16

// Reserved jitter variants, never produced by the distinct classes.
const (
	variantPool     = jitterSide*jitterSide - 1 // repeat pool statements
	variantQuality  = jitterSide*jitterSide - 2 // quality-pass statements
	distinctPerBase = jitterSide*jitterSide - 2
)

// renderSQL renders a compiled range query as a statement the server's
// parser accepts; sql.ParseAndCompile on the result gives q back. The
// generated workloads only range over numeric columns, whose ordinals
// are their values.
func renderSQL(q engine.Query) string {
	var b strings.Builder
	b.WriteString("SELECT ")
	b.WriteString(q.Func.String())
	b.WriteByte('(')
	if q.Func == engine.Count {
		b.WriteByte('*')
	} else {
		b.WriteString(q.Col)
	}
	b.WriteString(") FROM ")
	b.WriteString(tableName)
	for i, r := range q.Ranges {
		if i == 0 {
			b.WriteString(" WHERE ")
		} else {
			b.WriteString(" AND ")
		}
		b.WriteString(r.Col)
		b.WriteString(" BETWEEN ")
		b.WriteString(strconv.FormatFloat(r.Lo, 'g', -1, 64))
		b.WriteString(" AND ")
		b.WriteString(strconv.FormatFloat(r.Hi, 'g', -1, 64))
	}
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY ")
		b.WriteString(strings.Join(q.GroupBy, ", "))
	}
	return b.String()
}

// jitter returns variant v of a base query: the window on its date
// column (always Ranges[0]) shrinks by v%jitterSide days on the left
// and v/jitterSide days on the right.
func jitter(q engine.Query, v int) engine.Query {
	out := q
	out.Ranges = append([]engine.Range(nil), q.Ranges...)
	out.Ranges[0].Lo += float64(v % jitterSide)
	out.Ranges[0].Hi -= float64(v / jitterSide % jitterSide)
	return out
}

// request is one generated HTTP request plus what the oracle needs to
// check its answer.
type request struct {
	Index int
	Class string
	// Tag splits a class where a workload reports halves separately
	// ("pruned"/"unpruned" on the sharded shapes); empty otherwise.
	Tag   string
	Path  string
	Body  []byte
	Query engine.Query
}

// answerClass is the class whose answer path serves the request: a
// repeat request is one of the pool's approx or exact statements.
func (r *request) answerClass() string {
	if r.Class != classRepeat {
		return r.Class
	}
	if r.Path == "/v1/query" {
		return classExact
	}
	return classApprox
}

// mixEntry is one class's share of a workload, in requests per hundred.
type mixEntry struct {
	Class string
	Share int
}

// family is a set of base queries drawn from one template with
// workload.Generate.
type family struct {
	Tag     string
	Queries []engine.Query
}

// generator produces the deterministic request sequence of one run:
// request(i) depends only on the seed and i.
type generator struct {
	seed uint64
	// families per class; a class's n-th request uses family n%len,
	// base query (n/len)%len(Queries), variant n/len/len(Queries).
	families map[string][]family
	pool     []request
	zipf     *stats.Zipf
	// slots[s] is the class of slot s in the canonical (unshuffled)
	// hundred requests: each class in turn, Share slots long.
	slots []string
}

// designRows bounds the table workload.Generate runs on. Its rejection
// loop scans the table once per attempt, so drawing queries on the
// served table would cost more than the run itself; a table from the
// same generator with the same key domains and a tenth of the rows has
// the same marginals and selectivities to within sampling error.
const designRows = 30000

// designTable generates the table queries are drawn on: the same
// distributions as the served table of the given size.
func designTable(rows int, seed uint64) *engine.Table {
	n := rows
	if n > designRows {
		n = designRows
	}
	// The key domains default from Rows; pin them to the served
	// table's so value ranges carry over.
	return dataset.TPCDSkew(dataset.TPCDConfig{
		Rows: n, Seed: seed ^ 0xd5, Orders: max(rows/4, 1), Parts: max(rows/5, 1), Suppliers: max(rows/40, 1),
	})
}

// drawFamily draws count base queries over [dateCol, otherCol] with
// joint selectivity 0.5-5 % (the paper's §7 band).
func drawFamily(design *engine.Table, tag, agg, dateCol, otherCol string, count int, seed uint64) (family, error) {
	qs, err := workload.Generate(design, workload.Config{
		Template: cube.Template{Agg: agg, Dims: []string{dateCol, otherCol}},
		Count:    count,
		Seed:     seed,
	})
	if err != nil {
		return family{}, fmt.Errorf("draw %s/%s queries: %w", dateCol, otherCol, err)
	}
	for i := range qs {
		// The jitter needs 2*(jitterSide-1) days of slack; widen the
		// rare window that is narrower (extreme skew on the other
		// column can leave the date window almost empty).
		r := &qs[i].Ranges[0]
		if r.Hi-r.Lo < 3*jitterSide {
			r.Lo, r.Hi = 1, shipDays
		}
	}
	return family{Tag: tag, Queries: qs}, nil
}

func newGenerator(seed uint64, mix []mixEntry, families map[string][]family) (*generator, error) {
	g := &generator{seed: seed, families: families, zipf: stats.NewZipf(repeatPoolSize, repeatZipf)}
	total := 0
	for _, m := range mix {
		if m.Class != classRepeat && len(families[m.Class]) == 0 {
			return nil, fmt.Errorf("mix names class %q but no queries were drawn for it", m.Class)
		}
		for k := 0; k < m.Share; k++ {
			g.slots = append(g.slots, m.Class)
		}
		total += m.Share
	}
	if total != 100 {
		return nil, fmt.Errorf("mix shares sum to %d, want 100", total)
	}
	// The repeat pool: half approx, half exact statements, on a variant
	// no distinct class ever produces.
	for k := 0; k < repeatPoolSize; k++ {
		class := classApprox
		if k%2 == 1 {
			class = classExact
		}
		fams := families[class]
		if len(fams) == 0 {
			continue
		}
		f := fams[(k/2)%len(fams)]
		q := jitter(f.Queries[(k/2/len(fams))%len(f.Queries)], variantPool)
		req, err := buildRequest(class, f.Tag, q)
		if err != nil {
			return nil, err
		}
		req.Class = classRepeat
		g.pool = append(g.pool, req)
	}
	return g, nil
}

// classQuery returns the n-th distinct statement of a class.
func (g *generator) classQuery(class string, n int) (engine.Query, string) {
	fams := g.families[class]
	f := fams[n%len(fams)]
	k := n / len(fams)
	base := f.Queries[k%len(f.Queries)]
	return jitter(base, (k/len(f.Queries))%distinctPerBase), f.Tag
}

// request returns the i-th request of the run.
func (g *generator) request(i int) (request, error) {
	block, slot := i/100, i%100
	// Each block of a hundred is the canonical slot list under its own
	// permutation, so shares hold exactly over every hundred requests
	// and the order has no period.
	perm := stats.NewRNG(g.seed ^ (uint64(block)+1)*0x9e3779b97f4a7c15).Perm(100)
	class := g.slots[perm[slot]]
	// n counts this class's earlier requests: whole blocks, plus
	// earlier slots of this block.
	share, rank := 0, 0
	for s := 0; s < 100; s++ {
		if g.slots[perm[s]] != class {
			continue
		}
		if s < slot {
			rank++
		}
		share++
	}
	n := block*share + rank
	var req request
	if class == classRepeat {
		if len(g.pool) == 0 {
			return request{}, fmt.Errorf("repeat class without a pool")
		}
		r := stats.NewRNG(g.seed ^ 0xabcd ^ uint64(i)*0xbf58476d1ce4e5b9)
		req = g.pool[(g.zipf.Draw(r)-1)%len(g.pool)]
	} else {
		q, tag := g.classQuery(class, n)
		var err error
		req, err = buildRequest(class, tag, q)
		if err != nil {
			return request{}, err
		}
	}
	req.Index = i
	return req, nil
}

// qualityRequests returns count approx requests on the reserved
// quality variant, cycling the approx families.
func (g *generator) qualityRequests(count int) ([]request, error) {
	fams := g.families[classApprox]
	out := make([]request, 0, count)
	for n := 0; n < count; n++ {
		f := fams[n%len(fams)]
		base := f.Queries[(n/len(fams))%len(f.Queries)]
		req, err := buildRequest(classApprox, f.Tag, jitter(base, variantQuality))
		if err != nil {
			return nil, err
		}
		req.Index = n
		out = append(out, req)
	}
	return out, nil
}

// Request bodies. Field names follow internal/server's wire types; the
// harness keeps its own copies so that only generated bytes reach the
// server.
type queryBody struct {
	SQL       string `json:"sql"`
	Prepared  string `json:"prepared,omitempty"`
	Resamples int    `json:"resamples,omitempty"`
}

type contractBody struct {
	SQL         string  `json:"sql"`
	Prepared    string  `json:"prepared"`
	MaxRelError float64 `json:"max_rel_error"`
	AllowExact  bool    `json:"allow_exact,omitempty"`
	MaxRounds   int     `json:"max_rounds,omitempty"`
}

// buildRequest renders one query as the HTTP request of its class.
func buildRequest(class, tag string, q engine.Query) (request, error) {
	req := request{Class: class, Tag: tag, Query: q}
	var body any
	switch class {
	case classExact:
		req.Path = "/v1/query"
		body = queryBody{SQL: renderSQL(q)}
	case classApprox:
		req.Path = "/v1/approx"
		body = queryBody{SQL: renderSQL(q), Prepared: handleName}
	case classGroupBy:
		req.Path = "/v1/approx"
		q.GroupBy = []string{"l_returnflag"}
		req.Query = q
		body = queryBody{SQL: renderSQL(q), Prepared: handleName}
	case classBootstrap:
		req.Path = "/v1/approx"
		body = queryBody{SQL: renderSQL(q), Prepared: handleName, Resamples: bootstrapResamples}
	case classContract:
		req.Path = "/v1/contract"
		body = contractBody{SQL: renderSQL(q), Prepared: handleName, MaxRelError: contractRelError, AllowExact: true}
	case classProgressive:
		req.Path = "/v1/progressive"
		body = contractBody{SQL: renderSQL(q), Prepared: handleName, MaxRelError: progressiveRelError, MaxRounds: progressiveMaxRounds}
	default:
		return request{}, fmt.Errorf("no request shape for class %q", class)
	}
	b, err := json.Marshal(body)
	if err != nil {
		return request{}, err
	}
	req.Body = b
	return req, nil
}
