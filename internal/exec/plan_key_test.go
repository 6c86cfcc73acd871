package exec

import (
	"context"
	"strings"
	"testing"

	"aqppp/internal/contract"
	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/shard"
)

// TestCacheKeyCanonical pins the property the response cache depends
// on: statements that compile to the same work share one key, and
// statements that answer differently never do.
func TestCacheKeyCanonical(t *testing.T) {
	tbl := execTable(500)
	src := mapSource{"t": tbl}

	key := func(stmt string) string {
		t.Helper()
		p, err := PlanExactStatement(src, stmt)
		if err != nil {
			t.Fatalf("plan %q: %v", stmt, err)
		}
		return p.CacheKey()
	}

	base := key("SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 50 AND v BETWEEN 0 AND 100")

	// Whitespace, keyword case, and WHERE-conjunct order are all
	// surface syntax; the compiled plan — and the key — must not move.
	equivalents := []string{
		"select sum(v) from t where k between 10 and 50 and v between 0 and 100",
		"SELECT  SUM(v)  FROM t  WHERE k BETWEEN 10 AND 50 AND v BETWEEN 0 AND 100",
		"SELECT SUM(v) FROM t WHERE v BETWEEN 0 AND 100 AND k BETWEEN 10 AND 50",
	}
	for _, stmt := range equivalents {
		if got := key(stmt); got != base {
			t.Errorf("key(%q) = %q, want %q", stmt, got, base)
		}
	}

	// Anything that changes the answer must change the key.
	distinct := []string{
		"SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 51 AND v BETWEEN 0 AND 100",
		"SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 50",
		"SELECT COUNT(*) FROM t WHERE k BETWEEN 10 AND 50 AND v BETWEEN 0 AND 100",
		"SELECT SUM(v) FROM t",
	}
	seen := map[string]string{base: "base"}
	for _, stmt := range distinct {
		got := key(stmt)
		if prev, dup := seen[got]; dup {
			t.Errorf("key collision: %q and %q share %q", stmt, prev, got)
		}
		seen[got] = stmt
	}
}

// TestCacheKeyDiscriminatesAnswerPath verifies the kind, the group-by
// columns, and the bootstrap parameters are all part of the key: an
// exact scan, a closed-form approximation, and a bootstrap interval
// answer the same SQL with different results.
func TestCacheKeyDiscriminatesAnswerPath(t *testing.T) {
	tbl := execTable(500)
	proc := execProcessor(t, tbl)
	const stmt = "SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 50"

	exact, err := PlanExactStatement(mapSource{"t": tbl}, stmt)
	if err != nil {
		t.Fatal(err)
	}
	approx, err := PlanQueryStatement(Resident{Table: tbl, Proc: proc}, tbl, stmt)
	if err != nil {
		t.Fatal(err)
	}
	boot100, err := PlanBootstrapStatement(Resident{Table: tbl, Proc: proc}, tbl, stmt, 100, 0xb007)
	if err != nil {
		t.Fatal(err)
	}
	boot200, err := PlanBootstrapStatement(Resident{Table: tbl, Proc: proc}, tbl, stmt, 200, 0xb007)
	if err != nil {
		t.Fatal(err)
	}
	bootSeed, err := PlanBootstrapStatement(Resident{Table: tbl, Proc: proc}, tbl, stmt, 100, 0xdead)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]string{}
	for name, p := range map[string]*Plan{
		"exact": exact, "approx": approx,
		"boot100": boot100, "boot200": boot200, "bootSeed": bootSeed,
	} {
		k := p.CacheKey()
		if prev, dup := keys[k]; dup {
			t.Errorf("key collision: %s and %s share %q", name, prev, k)
		}
		keys[k] = name
	}

	// Same plan twice → same key (determinism).
	if boot100.CacheKey() != boot100.CacheKey() {
		t.Error("CacheKey is not deterministic")
	}

	// Group-by columns appear in the key.
	g, err := PlanExactStatement(mapSource{"t": tbl}, "SELECT SUM(v) FROM t GROUP BY k")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.CacheKey(), "by:k") {
		t.Errorf("group-by key %q missing by:k", g.CacheKey())
	}
}

// TestCacheKeyGolden pins CacheKey byte for byte against strings
// recorded at the commit before plans moved onto exec.Target: a cache
// warmed by one build must keep serving the next, so the key is a
// stable format, not an implementation detail. One plan of every kind
// per in-process target; the fleet's goldens live in
// internal/dist/conformance_test.go, next to the fixtures that build
// fleets (this package cannot import internal/dist).
func TestCacheKeyGolden(t *testing.T) {
	tbl := execTable(500)
	const stmt = "SELECT SUM(v) FROM t WHERE k BETWEEN 10 AND 50"
	const gstmt = "SELECT COUNT(*) FROM t WHERE v BETWEEN 0 AND 100 GROUP BY k"
	resident := Resident{Table: tbl, Proc: execProcessor(t, tbl)}
	s, err := shard.Partition(tbl, shard.Layout{Strategy: shard.ByRange, Column: "k", N: 4})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := shard.Prepare(context.Background(), s, core.BuildConfig{
		Template:   cube.Template{Agg: "v", Dims: []string{"k"}},
		SampleRate: 0.2, CellBudget: 64, Seed: 3,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded := Sharded{S: s, Prep: sp}
	shardedSource := targetSource{tbl: tbl, t: sharded}

	const ranges = "|k:0x1.4p+03..0x1.9p+05"
	const groups = "query|t|COUNT()|v:0x0p+00..0x1.9p+06|by:k"
	for _, c := range []struct {
		name string
		plan func() (*Plan, error)
		want string
	}{
		{"resident exact", func() (*Plan, error) { return PlanExactStatement(mapSource{"t": tbl}, stmt) },
			"exact|t|SUM(v)" + ranges},
		{"resident query", func() (*Plan, error) { return PlanQueryStatement(resident, tbl, stmt) },
			"query|t|SUM(v)" + ranges},
		{"resident groups", func() (*Plan, error) { return PlanQueryStatement(resident, tbl, gstmt) },
			groups},
		{"resident bootstrap", func() (*Plan, error) { return PlanBootstrapStatement(resident, tbl, stmt, 100, 0xb007) },
			"bootstrap|t|SUM(v)" + ranges + "|n=100|seed=45063"},
		{"resident contract", func() (*Plan, error) {
			return PlanContractStatement(resident, tbl, stmt, contract.Contract{MaxRelError: 0.5, AllowExact: true}, 7)
		}, "contract|t|SUM(v)" + ranges + "|contract=rel:3fe0000000000000,abs:0,conf:3fee666666666666,exact:1"},
		{"sharded exact", func() (*Plan, error) { return PlanExactStatement(shardedSource, stmt) },
			"exact|t|SUM(v)" + ranges + "|shards=range:k:4"},
		{"sharded query", func() (*Plan, error) { return PlanQueryStatement(sharded, tbl, stmt) },
			"query|t|SUM(v)" + ranges + "|shards=range:k:4"},
		{"sharded groups", func() (*Plan, error) { return PlanQueryStatement(sharded, tbl, gstmt) },
			groups + "|shards=range:k:4"},
		{"sharded bootstrap", func() (*Plan, error) { return PlanBootstrapStatement(sharded, tbl, stmt, 100, 0xb007) },
			"bootstrap|t|SUM(v)" + ranges + "|n=100|seed=45063|shards=range:k:4"},
	} {
		p, err := c.plan()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := p.CacheKey(); got != c.want {
			t.Errorf("%s: key %q, want %q", c.name, got, c.want)
		}
	}
}
