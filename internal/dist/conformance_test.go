package dist_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"aqppp"
	"aqppp/internal/core"
	"aqppp/internal/dist"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
)

// substrate is one execution target called directly, without the
// executor in between: what Executor.Run must reproduce.
type substrate struct {
	exact     func(context.Context, engine.Query) (engine.Result, error)
	approx    func(context.Context, engine.Query) (core.Answer, error)
	groups    func(context.Context, engine.Query) ([]core.GroupAnswer, error)
	bootstrap func(ctx context.Context, q engine.Query, resamples int, seed uint64) (core.Answer, error)
	// work counts the stratum executions the substrate has performed
	// (nil where it keeps no counter), to show a refusal did none.
	work func() uint64
}

// TestTargetConformance runs one table of plans over all three
// exec.Target implementations — a resident table, a 4-way range-sharded
// table and a 2-replica loopback fleet — and holds each to the same
// contract: Executor.Run answers exactly what the substrate answers
// when called directly, budgets refuse over-cap plans before any work,
// plan kinds that need the resident sample classify Unsupported
// elsewhere, and every cache key is byte-identical to the one recorded
// at the commit before plans moved onto exec.Target. It lives here
// rather than in internal/exec because only this test package already
// builds fleets.
func TestTargetConformance(t *testing.T) {
	const (
		stmt      = "SELECT SUM(v) FROM demo WHERE k BETWEEN 20 AND 470"
		gstmt     = stmt + " GROUP BY tier"
		resamples = 100
		ranges    = "|k:0x1.4p+04..0x1.d6p+08"
	)
	tbl := fleetTable(fleetRows, 7)
	ctx := context.Background()
	ex := exec.New()
	cont := aqppp.Contract{MaxRelError: 0.05, AllowExact: true}

	rdb := aqppp.NewDB()
	if err := rdb.Register(tbl); err != nil {
		t.Fatal(err)
	}
	rprep, err := rdb.Prepare(context.Background(), aqppp.PrepareOptions{
		Table: tbl.Name, Aggregate: "v", Dimensions: []string{"k"},
		SampleRate: fleetRate, CellBudget: fleetBudget, Seed: fleetSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	proc := rprep.Processor()

	sdb, sprep := oracle(t, tbl, 4)
	shs, shp := sdb.Sharded(tbl.Name), sprep.ShardedProcessor()

	coord, _ := startFleet(t, tbl, 2, dist.Config{Timeout: 10 * time.Second})
	fdb, fprep := coordDB(t, coord)
	fleet := coord.Target(fleetHandle)

	for _, c := range []struct {
		name string
		db   *aqppp.DB
		prep *aqppp.Prepared
		sub  substrate
		// resident marks the target contract and multi plans run on.
		resident bool
		// sig is the target's cache-key suffix on exact plans, and
		// handle what prepared plans append to it.
		sig, handle string
	}{
		{name: "resident", db: rdb, prep: rprep, resident: true, sub: substrate{
			exact:  tbl.ExecuteContext,
			approx: func(_ context.Context, q engine.Query) (core.Answer, error) { return proc.Answer(q) },
			groups: proc.AnswerGroups,
			bootstrap: func(ctx context.Context, q engine.Query, n int, seed uint64) (core.Answer, error) {
				return proc.AnswerBootstrap(ctx, q, n, seed, nil)
			},
		}},
		{name: "sharded", db: sdb, prep: sprep, sig: "|shards=range:k:4", sub: substrate{
			exact:  func(ctx context.Context, q engine.Query) (engine.Result, error) { return shs.Execute(ctx, q, 0) },
			approx: func(ctx context.Context, q engine.Query) (core.Answer, error) { return shp.Answer(ctx, q, 0) },
			groups: func(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error) {
				return shp.AnswerGroups(ctx, q, 0)
			},
			bootstrap: func(ctx context.Context, q engine.Query, n int, seed uint64) (core.Answer, error) {
				return shp.AnswerBootstrap(ctx, q, n, seed, 0)
			},
			work: func() (n uint64) {
				for _, sh := range shs.Snapshot().Shards {
					n += sh.Scans
				}
				return n
			},
		}},
		{name: "fleet", db: fdb, prep: fprep, sig: "|dist=range:k:2@t1", handle: "|dh=h", sub: substrate{
			exact: fleet.Exact,
			approx: func(ctx context.Context, q engine.Query) (core.Answer, error) {
				a, _, err := fleet.Approx(ctx, q)
				return a, err
			},
			groups: func(ctx context.Context, q engine.Query) ([]core.GroupAnswer, error) {
				g, _, err := fleet.ApproxGroups(ctx, q)
				return g, err
			},
			bootstrap: func(ctx context.Context, q engine.Query, n int, seed uint64) (core.Answer, error) {
				a, _, err := fleet.Bootstrap(ctx, q, n, seed)
				return a, err
			},
			work: func() (n uint64) {
				for _, r := range coord.Snapshot().Replicas {
					n += r.Requests
				}
				return n
			},
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			// Every kind: the executor's outcome is the substrate's
			// answer, under the parent commit's cache key.
			for _, k := range []struct {
				kind string
				plan func() (*exec.Plan, error)
				key  string
				want func(*exec.Plan) (any, error)
				got  func(exec.Outcome) any
			}{
				{"exact", func() (*exec.Plan, error) { return c.db.PlanExact(stmt) },
					"exact|demo|SUM(v)" + ranges + c.sig,
					func(p *exec.Plan) (any, error) { return c.sub.exact(ctx, p.Query) },
					func(o exec.Outcome) any { return o.Exact }},
				{"query", func() (*exec.Plan, error) { return c.prep.PlanQuery(stmt) },
					"query|demo|SUM(v)" + ranges + c.sig + c.handle,
					func(p *exec.Plan) (any, error) { return c.sub.approx(ctx, p.Query) },
					func(o exec.Outcome) any { return o.Answer }},
				{"groups", func() (*exec.Plan, error) { return c.prep.PlanQuery(gstmt) },
					"query|demo|SUM(v)" + ranges + "|by:tier" + c.sig + c.handle,
					func(p *exec.Plan) (any, error) { return c.sub.groups(ctx, p.Query) },
					func(o exec.Outcome) any { return o.Groups }},
				{"bootstrap", func() (*exec.Plan, error) { return c.prep.PlanBootstrap(stmt, resamples) },
					"bootstrap|demo|SUM(v)" + ranges + "|n=100|seed=45063" + c.sig + c.handle,
					func(p *exec.Plan) (any, error) { return c.sub.bootstrap(ctx, p.Query, resamples, p.Seed) },
					func(o exec.Outcome) any { return o.Answer }},
			} {
				p, err := k.plan()
				if err != nil {
					t.Fatalf("%s: plan: %v", k.kind, err)
				}
				if got := p.CacheKey(); got != k.key {
					t.Errorf("%s: cache key %q, want %q", k.kind, got, k.key)
				}
				out, err := ex.Run(ctx, p, exec.Budget{})
				if err != nil {
					t.Fatalf("%s: run: %v", k.kind, err)
				}
				want, err := k.want(p)
				if err != nil {
					t.Fatalf("%s: direct: %v", k.kind, err)
				}
				if got := k.got(out); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: executor answered %+v, substrate %+v", k.kind, got, want)
				}
				if out.Partial {
					t.Errorf("%s: healthy target answered partial", k.kind)
				}
			}

			// Budgets. The resample cap refuses on every target before a
			// single stratum runs; the scratch cap binds wherever the
			// resampling happens in this process, which a fleet's does not.
			boot, err := c.prep.PlanBootstrap(stmt, resamples)
			if err != nil {
				t.Fatal(err)
			}
			refused := func(what string, b exec.Budget) {
				t.Helper()
				var before uint64
				if c.sub.work != nil {
					before = c.sub.work()
				}
				if _, err := ex.Run(ctx, boot, b); exec.KindOf(err) != exec.BudgetExceeded {
					t.Errorf("over-cap %s: err = %v, want kind %v", what, err, exec.BudgetExceeded)
				}
				if c.sub.work != nil && c.sub.work() != before {
					t.Errorf("over-cap %s: refused plan still ran %d stratum executions", what, c.sub.work()-before)
				}
			}
			refused("resamples", exec.Budget{MaxResamples: resamples - 1})
			if c.name != "fleet" {
				refused("scratch", exec.Budget{MaxScratchBytes: 1})
			} else if _, err := ex.Run(ctx, boot, exec.Budget{MaxScratchBytes: 1}); err != nil {
				t.Errorf("scratch cap reached a fleet that resamples remotely: %v", err)
			}

			// Contract plans need the resident sample.
			cp, err := c.prep.PlanContract(stmt, cont)
			if c.resident {
				if err != nil {
					t.Fatalf("contract: plan: %v", err)
				}
				want := "contract|demo|SUM(v)" + ranges + "|contract=rel:3fa999999999999a,abs:0,conf:3fee666666666666,exact:1"
				if got := cp.CacheKey(); got != want {
					t.Errorf("contract: cache key %q, want %q", got, want)
				}
				if _, err := ex.Run(ctx, cp, exec.Budget{}); err != nil {
					t.Errorf("contract: run: %v", err)
				}
				return
			}
			if exec.KindOf(err) != exec.Unsupported {
				t.Errorf("contract plan: err = %v, want kind %v", err, exec.Unsupported)
			}
			bare := &exec.Plan{Kind: exec.PlanContract, Table: boot.Table, Query: boot.Query, Target: boot.Target, Contract: &cont}
			if _, err := ex.Run(ctx, bare, exec.Budget{}); exec.KindOf(err) != exec.Unsupported {
				t.Errorf("%v plan without resident state: err = %v, want kind %v", bare.Kind, err, exec.Unsupported)
			}
		})
	}
}
