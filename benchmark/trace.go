package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"aqppp"
	"aqppp/internal/aqp"
	"aqppp/internal/contract"
	"aqppp/internal/core"
	"aqppp/internal/cube"
	"aqppp/internal/dist"
	"aqppp/internal/engine"
	"aqppp/internal/exec"
	"aqppp/internal/ident"
	"aqppp/internal/server"
	"aqppp/internal/shard"
	"aqppp/internal/sql"
)

// span is one call into a layer's public function, made by the harness
// during the traced pass. Spans of one replayed request share Request;
// Parent is the span whose work contains this call (0 for a request's
// root, the in-process handler). Children are replays: they run after
// their parent returns, on the same inputs, so a parent's self time is
// its duration minus its children's durations, not an interval
// subtraction.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"`
	Request int     `json:"request"`
	Class   string  `json:"class"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

func (s span) durUS() float64 { return s.EndUS - s.StartUS }

// tracer keeps spans in memory until the run ends. The traced pass is
// single-threaded, so it needs no lock.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// call times fn as a span and returns the span's id.
func (t *tracer) call(name string, parent int, req *request, fn func() error) (int, error) {
	id := len(t.spans) + 1
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Request: req.Index, Class: req.Class, Name: name,
		StartUS: float64(start) / float64(time.Microsecond),
		EndUS:   float64(end) / float64(time.Microsecond),
	})
	if err != nil {
		return id, fmt.Errorf("%s (request %d, %s): %w", name, req.Index, req.Class, err)
	}
	return id, nil
}

// selfTimes returns each span's duration minus its children's.
func selfTimes(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.durUS()
		if s.Parent != 0 {
			self[s.Parent] -= s.durUS()
		}
	}
	return self
}

// durations collects span durations in µs by "name" and "name@class".
func durations(spans []span) map[string]*sample {
	out := make(map[string]*sample)
	add := func(k string, v float64) {
		s := out[k]
		if s == nil {
			s = &sample{}
			out[k] = s
		}
		s.add(v)
	}
	for _, s := range spans {
		add(s.Name, s.durUS())
		add(s.Name+"@"+s.Class, s.durUS())
	}
	return out
}

// inproc is the server's state rebuilt inside the harness, in the
// workload's shape, so the traced pass can call each layer directly.
type inproc struct {
	db    *aqppp.DB
	srv   *server.Server
	prep  *aqppp.Prepared
	tbl   *engine.Table // the table plans compile against
	proc  *core.Processor
	shp   *shard.Prepared
	shs   *shard.Sharded
	cache *server.Cache
	ex    *exec.Executor
	// replica is a fleet replica's base URL, for the partial round trip.
	replica string
	// buildS is the wall time of building (or restoring) the handle;
	// build its split where the shape has one.
	buildS float64
	build  core.BuildStats
	openUS float64
}

func (ip *inproc) close() {
	_ = ip.db.CloseStores()
}

// prepareOptions are serveFlags' handle as the root API takes it.
func (s spec) prepareOptions() aqppp.PrepareOptions {
	return aqppp.PrepareOptions{
		Table: tableName, Aggregate: measureCol, Dimensions: handleDims,
		SampleRate: s.SampleRate, CellBudget: cellBudget, Seed: dataSeed, WithMinMax: true,
	}
}

// buildInproc mirrors what cmd/aqppp-serve does at start-up for the
// workload's shape, against the oracle's table (or the store file, or
// the running replicas).
func buildInproc(ctx context.Context, s spec, p *prepared, d *deployment) (*inproc, error) {
	ip := &inproc{db: aqppp.NewDB(), ex: exec.New(), cache: server.NewCache(32<<20, time.Minute)}
	ip.srv = server.New(ip.db, server.Config{
		DefaultTimeout: 30 * time.Second, MaxTimeout: 5 * time.Minute, MaxResamples: 100000,
	})
	t0 := time.Now()
	switch s.Shape {
	case shapeResident, shapeSharded:
		ip.tbl = p.oracle.tbl
		if s.Shape == shapeSharded {
			if err := ip.db.RegisterSharded(ip.tbl, aqppp.ShardOptions{Column: shardCol, Shards: s.Shards}); err != nil {
				return nil, err
			}
			ip.shs = ip.db.Sharded(tableName)
		} else if err := ip.db.Register(ip.tbl); err != nil {
			return nil, err
		}
		t0 = time.Now()
		prep, err := ip.db.PrepareContext(ctx, s.prepareOptions())
		if err != nil {
			return nil, err
		}
		ip.buildS = time.Since(t0).Seconds()
		ip.prep, ip.proc, ip.shp = prep, prep.Processor(), prep.ShardedProcessor()
		if ip.shp != nil {
			for _, bs := range ip.shp.BuildStats {
				ip.build.SampleTime += bs.SampleTime
				ip.build.OptimizeTime += bs.OptimizeTime
				ip.build.CubeTime += bs.CubeTime
			}
		} else {
			// The root API reports only the total; run the pipeline once
			// more for its split.
			_, st, err := core.Build(ctx, ip.tbl, core.BuildConfig{
				Template:   cube.Template{Agg: measureCol, Dims: handleDims},
				SampleRate: s.SampleRate, CellBudget: cellBudget, Seed: dataSeed, WithMinMax: true,
			})
			if err != nil {
				return nil, err
			}
			ip.build = st
		}
	case shapeStore:
		preps, err := ip.db.OpenStore(p.storeFile)
		if err != nil {
			return nil, err
		}
		ip.openUS = float64(time.Since(t0)) / float64(time.Microsecond)
		ip.buildS = time.Since(t0).Seconds()
		if len(preps) != 1 {
			return nil, fmt.Errorf("store holds %d handles, want 1", len(preps))
		}
		ip.prep, ip.proc = preps[0].Prep, preps[0].Prep.Processor()
		ip.tbl, _ = ip.db.LookupTable(tableName)
	case shapeFleet:
		urls := d.replicaURLs()
		coord, err := dist.Dial(ctx, urls, dist.Config{Timeout: 5 * time.Second, Retries: 2})
		if err != nil {
			return nil, err
		}
		if err := ip.db.RegisterDistributed(coord.SchemaTable(), coord); err != nil {
			return nil, err
		}
		for _, h := range coord.Handles() {
			if h.Name != handleName {
				continue
			}
			ip.prep, err = ip.db.DistPrepared(coord.Table(), h.Name, h.Confidence, h.SampleRows)
			if err != nil {
				return nil, err
			}
		}
		ip.buildS = time.Since(t0).Seconds()
		ip.tbl = coord.SchemaTable()
		ip.replica = urls[0]
	}
	if ip.prep == nil || ip.tbl == nil {
		return nil, fmt.Errorf("%s: in-process handle %q was not built", s.Name, handleName)
	}
	if err := ip.srv.RegisterPrepared(handleName, ip.prep); err != nil {
		return nil, err
	}
	return ip, nil
}

// Replay bounds: at most replayPerClass requests of a class, and no
// more once a class has used replayBudget of wall time (a bootstrap
// replays in tens of milliseconds, an approx in one).
const (
	replayPerClass = 200
	replayBudget   = 1200 * time.Millisecond
	replayScan     = 6000 // request indices scanned for replay candidates
)

// replayCounts are the counts the traced pass gathers where the work
// happens.
type replayCounts struct {
	answers     int
	candidates  int
	usedPre     int
	rounds      sample // progressive rounds per stream
	roundUS     sample // time between progressive rounds
	storeMissUS sample // cold exact scan time per decoded block
}

// tracedPass replays generated requests in-process: the whole request
// through the routed handler (no socket), then each layer's public
// function on the same inputs, as child spans.
func tracedPass(ctx context.Context, s spec, g *generator, ip *inproc) (*tracer, *replayCounts, error) {
	t := newTracer()
	counts := &replayCounts{}
	done := make(map[string]int)
	spent := make(map[string]time.Duration)
	for i := 0; i < replayScan; i++ {
		req, err := g.request(i)
		if err != nil {
			return nil, nil, err
		}
		if done[req.Class] >= replayPerClass || spent[req.Class] >= replayBudget {
			continue
		}
		t0 := time.Now()
		if err := replay(ctx, t, counts, s, ip, &req); err != nil {
			return nil, nil, err
		}
		done[req.Class]++
		spent[req.Class] += time.Since(t0)
	}
	return t, counts, nil
}

// replay traces one request.
func replay(ctx context.Context, t *tracer, counts *replayCounts, s spec, ip *inproc, req *request) error {
	rec := httptest.NewRecorder()
	store, stored := ip.db.StoreFor(tableName)
	var missesBefore uint64
	if stored {
		missesBefore = store.CacheStats().Misses
	}
	root, err := t.call("server.handler", 0, req, func() error {
		hr := httptest.NewRequest(http.MethodPost, req.Path, bytes.NewReader(req.Body))
		ip.srv.Handler().ServeHTTP(rec, hr)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("in-process handler answered %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
		}
		return nil
	})
	if err != nil {
		return err
	}
	if stored && req.Class == classExact {
		// The handler's run is the cold one: the replays below find the
		// blocks it decoded still cached.
		if missed := store.CacheStats().Misses - missesBefore; missed > 0 {
			counts.storeMissUS.add(t.spans[root-1].durUS() / float64(missed))
		}
	}
	if req.Class == classProgressive {
		return replayProgressive(ctx, counts, ip, req)
	}
	statement := renderSQL(req.Query)
	cont := aqppp.Contract{MaxRelError: contractRelError, AllowExact: true}
	class := req.answerClass()

	// Plan: parse, compile (and for a contract, decide), as the handler
	// does through the root API.
	var plan *exec.Plan
	planID, err := t.call("exec.plan", root, req, func() (err error) {
		switch class {
		case classExact:
			plan, err = ip.db.PlanExact(statement)
		case classContract:
			plan, err = ip.prep.PlanContract(statement, cont)
		case classBootstrap:
			plan, err = ip.prep.PlanBootstrap(statement, bootstrapResamples)
		default:
			plan, err = ip.prep.PlanQuery(statement)
		}
		return err
	})
	if err != nil {
		return err
	}
	var st *sql.Statement
	if _, err := t.call("sql.parse", planID, req, func() (err error) {
		st, err = sql.Parse(statement)
		return err
	}); err != nil {
		return err
	}
	if _, err := t.call("sql.compile", planID, req, func() error {
		_, err := sql.Compile(st, ip.tbl)
		return err
	}); err != nil {
		return err
	}
	q := plan.Query
	if class == classContract {
		if _, err := t.call("contract.decide", planID, req, func() error {
			_, err := contract.Decide(ip.proc, q, cont)
			return err
		}); err != nil {
			return err
		}
	}

	var key string
	if _, err := t.call("exec.cachekey", root, req, func() error {
		key = plan.CacheKey()
		return nil
	}); err != nil {
		return err
	}
	hit := false
	if _, err := t.call("server.cache_get", root, req, func() error {
		_, hit = ip.cache.Get(key, 1)
		return nil
	}); err != nil {
		return err
	}

	if !hit {
		runID, err := t.call("exec.run_"+class, root, req, func() error {
			_, err := ip.ex.Run(ctx, plan, exec.Budget{MaxResamples: 100000})
			return err
		})
		if err != nil {
			return err
		}
		if err := replayRun(ctx, t, counts, s, ip, req, class, plan, runID); err != nil {
			return err
		}
	}

	var resp server.QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return fmt.Errorf("decode in-process response: %w", err)
	}
	if _, err := t.call("server.encode", root, req, func() error {
		_, err := json.Marshal(resp)
		return err
	}); err != nil {
		return err
	}
	if !hit {
		ip.cache.Put(key, 1, resp)
	}
	return nil
}

// replayRun replays what Executor.Run called for this class and shape.
func replayRun(ctx context.Context, t *tracer, counts *replayCounts, s spec, ip *inproc, req *request, class string, plan *exec.Plan, runID int) error {
	q := plan.Query
	switch s.Shape {
	case shapeFleet:
		if class == classExact || class == classApprox {
			return replayPartial(ctx, t, ip, req, class, q, runID)
		}
		return nil
	case shapeSharded:
		switch class {
		case classExact:
			id, err := t.call("shard.exact", runID, req, func() error {
				_, err := ip.shs.ExecuteContext(ctx, q, 0)
				return err
			})
			if err != nil {
				return err
			}
			for _, sh := range ip.shs.Shards {
				if _, err := t.call("engine.partial", id, req, func() error {
					_, err := sh.Table.ExecutePartialContext(ctx, q)
					return err
				}); err != nil {
					return err
				}
			}
		case classApprox:
			id, err := t.call("shard.answer", runID, req, func() error {
				_, err := ip.shp.Answer(ctx, q, 0)
				return err
			})
			if err != nil {
				return err
			}
			for _, proc := range ip.shp.Procs {
				if proc == nil {
					continue
				}
				if err := replayAnswer(t, counts, proc, req, q, id); err != nil {
					return err
				}
			}
		}
		return nil
	}
	// Resident and store-served: one processor, one table.
	switch class {
	case classExact:
		_, err := t.call("engine.execute", runID, req, func() error {
			_, err := ip.tbl.ExecuteContext(ctx, q)
			return err
		})
		return err
	case classApprox:
		return replayAnswer(t, counts, ip.proc, req, q, runID)
	case classGroupBy:
		_, err := t.call("core.groups", runID, req, func() error {
			_, err := ip.proc.AnswerGroups(ctx, q)
			return err
		})
		return err
	case classBootstrap:
		_, err := t.call("core.bootstrap", runID, req, func() error {
			_, err := ip.proc.AnswerBootstrap(ctx, q, bootstrapResamples, plan.Seed, nil)
			return err
		})
		return err
	case classContract:
		rungs := plan.Decision.Ladder(ip.proc.Sample.Size(), plan.Contract.AllowExact)
		if len(rungs) == 0 || (rungs[0].Strategy != contract.StrategyApprox && rungs[0].Strategy != contract.StrategyCube) {
			return nil
		}
		_, err := t.call("contract.answerat", runID, req, func() error {
			_, err := contract.AnswerAt(ip.proc, q, rungs[0].Rows, plan.Contract.ConfidenceOrDefault(), plan.Seed)
			return err
		})
		return err
	}
	return nil
}

// replayAnswer replays one processor's closed-form answer and the
// calls under it.
func replayAnswer(t *tracer, counts *replayCounts, proc *core.Processor, req *request, q engine.Query, parent int) error {
	var ans core.Answer
	id, err := t.call("core.answer", parent, req, func() (err error) {
		ans, err = proc.Answer(q)
		return err
	})
	if err != nil {
		return err
	}
	counts.answers++
	counts.candidates += ans.Candidates
	if !ans.Pre.IsPhi() {
		counts.usedPre++
	}
	conf := proc.Confidence
	if conf == 0 {
		conf = 0.95
	}
	sub := proc.Sub
	if sub == nil {
		sub = proc.Sample
	}
	var sel ident.Selection
	if _, err := t.call("ident.select", id, req, func() (err error) {
		sel, err = ident.SelectBest(proc.Cube, q, sub, conf)
		return err
	}); err != nil {
		return err
	}
	if _, err := t.call("cube.rangesum", id, req, func() error {
		_ = sel.Pre.Value(proc.Cube)
		return nil
	}); err != nil {
		return err
	}
	_, err = t.call("aqp.estimate", id, req, func() error {
		_, err := aqp.EstimateQuery(proc.Sample, q, conf)
		return err
	})
	return err
}

// replayPartial sends one stratum's partial to a replica the way the
// coordinator does, timing the wire encoding and decoding around it.
func replayPartial(ctx context.Context, t *tracer, ip *inproc, req *request, class string, q engine.Query, parent int) error {
	mode := dist.ModeExact
	if class == classApprox {
		mode = dist.ModeApprox
	}
	wire := func() ([]byte, error) {
		return json.Marshal(dist.PartialRequest{
			V: dist.WireVersion, Mode: mode, Table: tableName, Query: dist.ToWireQuery(q), Handle: handleName,
		})
	}
	var respBody []byte
	id, err := t.call("dist.partial_rtt", parent, req, func() error {
		body, err := wire()
		if err != nil {
			return err
		}
		hr, err := http.NewRequestWithContext(ctx, http.MethodPost, ip.replica+"/v1/partial", bytes.NewReader(body))
		if err != nil {
			return err
		}
		hr.Header.Set("Content-Type", "application/json")
		resp, err := http.DefaultClient.Do(hr)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("replica answered %d: %s", resp.StatusCode, bytes.TrimSpace(buf.Bytes()))
		}
		respBody = buf.Bytes()
		return nil
	})
	if err != nil {
		return err
	}
	if _, err := t.call("dist.wire_encode", id, req, func() error {
		_, err := wire()
		return err
	}); err != nil {
		return err
	}
	_, err = t.call("dist.wire_decode", id, req, func() error {
		var pr dist.PartialResponse
		if err := json.Unmarshal(respBody, &pr); err != nil {
			return err
		}
		if pr.Scalar != nil {
			_ = dist.FromWirePartial(*pr.Scalar)
		}
		if pr.Answer != nil {
			_ = dist.FromWireAnswer(*pr.Answer)
		}
		return nil
	})
	return err
}

// replayProgressive streams one progressive query in-process and
// records the time between rounds.
func replayProgressive(ctx context.Context, counts *replayCounts, ip *inproc, req *request) error {
	last := time.Now()
	rounds := 0
	_, err := ip.prep.QueryProgressiveBudget(ctx, renderSQL(req.Query), aqppp.ProgressiveOptions{
		Contract:  &aqppp.Contract{MaxRelError: progressiveRelError},
		MaxRounds: progressiveMaxRounds,
	}, aqppp.Budget{}, func(aqppp.ProgressiveRound) error {
		now := time.Now()
		counts.roundUS.add(float64(now.Sub(last)) / float64(time.Microsecond))
		last = now
		rounds++
		return nil
	})
	if err != nil {
		return fmt.Errorf("in-process progressive (request %d): %w", req.Index, err)
	}
	counts.rounds.add(float64(rounds))
	return nil
}
