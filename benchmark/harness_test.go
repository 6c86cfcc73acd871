package main

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"aqppp/internal/engine"
	"aqppp/internal/sql"
)

func TestPercentiles(t *testing.T) {
	var s sample
	if got := s.median(); got != 0 {
		t.Fatalf("empty median = %v, want 0", got)
	}
	for _, v := range []float64{5, 1, 4, 2, 3} {
		s.add(v)
	}
	if got := s.median(); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := s.percentile(0); got != 1 {
		t.Errorf("p0 = %v, want 1", got)
	}
	if got := s.percentile(1); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	// Between order statistics: position 0.95*4 = 3.8 -> 4 + 0.8.
	if got := s.percentile(0.95); math.Abs(got-4.8) > 1e-12 {
		t.Errorf("p95 = %v, want 4.8", got)
	}
	s.add(6) // adding after sorting must re-sort
	if got := s.median(); got != 3.5 {
		t.Errorf("median of six = %v, want 3.5", got)
	}
}

func TestSupports(t *testing.T) {
	var s sample
	for i := 0; i < 199; i++ {
		s.add(float64(i))
	}
	if s.supports(0.95) {
		t.Error("199 observations leave fewer than ten beyond p95")
	}
	s.add(1)
	if !s.supports(0.95) {
		t.Error("200 observations leave ten beyond p95")
	}
	if s.supports(0.99) {
		t.Error("p99 needs a thousand observations")
	}
}

// TestQuartileSpread pins the rule to Python's
// statistics.quantiles(values, n=4): for 1..10 it returns
// [2.75, 5.5, 8.25].
func TestQuartileSpread(t *testing.T) {
	vals := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	want := (8.25 - 2.75) / 5.5
	if got := quartileSpread(vals); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "server.handler", StartUS: 0, EndUS: 100},
		{ID: 2, Parent: 1, Name: "exec.plan", StartUS: 100, EndUS: 130},
		{ID: 3, Parent: 2, Name: "sql.parse", StartUS: 130, EndUS: 140},
		{ID: 4, Parent: 1, Name: "exec.run_approx", StartUS: 140, EndUS: 190},
	}
	self := selfTimes(spans)
	want := map[int]float64{1: 20, 2: 20, 3: 10, 4: 50}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("self times = %v, want %v", self, want)
	}
	// Every microsecond of the root is attributed exactly once.
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if sum != 100 {
		t.Errorf("self times sum to %v, want the root's 100", sum)
	}
	if got := durations(spans)["exec.plan"].median(); got != 30 {
		t.Errorf("exec.plan duration = %v, want 30", got)
	}
}

func smokeGenerator(t *testing.T, name string, seed uint64) *generator {
	t.Helper()
	s, err := specByName(name, true)
	if err != nil {
		t.Fatal(err)
	}
	fams, err := s.drawFamilies(seed)
	if err != nil {
		t.Fatal(err)
	}
	g, err := newGenerator(seed, s.Mix, fams)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestScheduleDeterministic: the same seed yields a byte-identical
// request list, another seed a different one, and request(i) does not
// depend on the order it is asked in.
func TestScheduleDeterministic(t *testing.T) {
	for _, s := range specs(true) {
		a, b, c := smokeGenerator(t, s.Name, 7), smokeGenerator(t, s.Name, 7), smokeGenerator(t, s.Name, 8)
		differs := false
		for i := 0; i < 500; i++ {
			ra, err := a.request(i)
			if err != nil {
				t.Fatal(err)
			}
			rb, _ := b.request(499 - i)
			rb, _ = b.request(i)
			rc, _ := c.request(i)
			if ra.Path != rb.Path || !bytes.Equal(ra.Body, rb.Body) {
				t.Fatalf("%s request %d differs between two generators of one seed:\n%s\n%s", s.Name, i, ra.Body, rb.Body)
			}
			if !bytes.Equal(ra.Body, rc.Body) {
				differs = true
			}
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 gave the same 500 requests", s.Name)
		}
	}
}

// TestMixAndDistinctness: over whole blocks the class shares are exact,
// and no distinct-class statement is ever sent twice (the response
// cache must never hit on them), while the repeat class stays inside
// its pool.
func TestMixAndDistinctness(t *testing.T) {
	for _, s := range specs(true) {
		g := smokeGenerator(t, s.Name, 3)
		const n = 2000
		counts := make(map[string]int)
		seen := make(map[string]bool)
		pool := make(map[string]bool)
		for _, r := range g.pool {
			pool[r.Path+string(r.Body)] = true
		}
		for i := 0; i < n; i++ {
			r, err := g.request(i)
			if err != nil {
				t.Fatal(err)
			}
			counts[r.Class]++
			key := r.Path + string(r.Body)
			if r.Class == classRepeat {
				if !pool[key] {
					t.Fatalf("%s: repeat request %d is not a pool statement", s.Name, i)
				}
				continue
			}
			if seen[key] || pool[key] {
				t.Fatalf("%s: distinct-class request %d repeats an earlier statement: %s", s.Name, i, r.Body)
			}
			seen[key] = true
		}
		for _, m := range s.Mix {
			if got, want := counts[m.Class], m.Share*n/100; got != want {
				t.Errorf("%s: %d %s requests in %d, want %d", s.Name, got, m.Class, n, want)
			}
		}
	}
}

// TestRenderSQLRoundTrips: what the renderer writes, the server's
// parser and compiler read back as the same query.
func TestRenderSQLRoundTrips(t *testing.T) {
	tbl := designTable(5000, dataSeed)
	queries := []engine.Query{
		{Func: engine.Sum, Col: "l_extendedprice", Ranges: []engine.Range{{Col: "l_shipdate", Lo: 10, Hi: 900}, {Col: "l_suppkey", Lo: 2, Hi: 17}}},
		{Func: engine.Sum, Col: "l_quantity", Ranges: []engine.Range{{Col: "l_shipdate", Lo: 1, Hi: 2526}, {Col: "l_discount", Lo: 0.03, Hi: 0.07}}},
		{Func: engine.Count, Ranges: []engine.Range{{Col: "l_commitdate", Lo: 100, Hi: 200}}},
		{Func: engine.Avg, Col: "l_extendedprice", Ranges: []engine.Range{{Col: "l_tax", Lo: 0.01, Hi: 0.08}}, GroupBy: []string{"l_returnflag"}},
		{Func: engine.Sum, Col: "l_extendedprice"},
	}
	for _, s := range specs(true) {
		g := smokeGenerator(t, s.Name, 5)
		for i := 0; i < 200; i++ {
			r, err := g.request(i)
			if err != nil {
				t.Fatal(err)
			}
			queries = append(queries, r.Query)
		}
	}
	for _, q := range queries {
		statement := renderSQL(q)
		got, err := sql.ParseAndCompile(statement, tbl)
		if err != nil {
			t.Fatalf("%q does not parse: %v", statement, err)
		}
		if got.Func != q.Func || (q.Func != engine.Count && got.Col != q.Col) ||
			!reflect.DeepEqual(got.GroupBy, q.GroupBy) || len(got.Ranges) != len(q.Ranges) {
			t.Fatalf("%q compiled to %v, want %v", statement, got, q)
		}
		for i := range q.Ranges {
			if got.Ranges[i] != q.Ranges[i] {
				t.Fatalf("%q: range %d compiled to %v, want %v", statement, i, got.Ranges[i], q.Ranges[i])
			}
		}
	}
}

func TestJitterKeepsWindowsValid(t *testing.T) {
	for _, s := range specs(true) {
		g := smokeGenerator(t, s.Name, 11)
		for class, fams := range g.families {
			for _, f := range fams {
				for _, q := range f.Queries {
					for _, v := range []int{0, distinctPerBase - 1, variantQuality, variantPool} {
						j := jitter(q, v)
						if j.Ranges[0].Lo > j.Ranges[0].Hi {
							t.Fatalf("%s/%s variant %d inverts the window %v", s.Name, class, v, j.Ranges[0])
						}
					}
				}
			}
		}
	}
}

func TestOracleChecks(t *testing.T) {
	o := &oracle{tbl: designTable(5000, dataSeed)}
	q := engine.Query{Func: engine.Sum, Col: "l_extendedprice", Ranges: []engine.Range{{Col: "l_shipdate", Lo: 1, Hi: 1000}}}
	iq := engine.Query{Func: engine.Sum, Col: "l_quantity", Ranges: q.Ranges}
	ctx := context.Background()
	truth, err := o.truth(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	itruth, _ := o.truth(ctx, iq)
	hw, conf := 1.0, 0.95
	exact := func(q engine.Query, v float64) result {
		req, _ := buildRequest(classExact, "", q)
		return result{Req: req, Answer: answer{Value: v}}
	}
	approx := func(a answer) result {
		req, _ := buildRequest(classApprox, "", q)
		return result{Req: req, Answer: a}
	}
	cases := []struct {
		name string
		r    result
		ok   bool
	}{
		{"exact float, bit equal", exact(q, truth), true},
		{"exact float, reassociated", exact(q, truth*(1+1e-12)), true},
		{"exact float, wrong", exact(q, truth*(1+1e-6)), false},
		{"exact integer, equal", exact(iq, itruth), true},
		{"exact integer, off by one", exact(iq, itruth+1), false},
		{"approx with interval", approx(answer{Value: 1, HalfWidth: &hw, Confidence: &conf}), true},
		{"approx without half_width", approx(answer{Value: 1, Confidence: &conf}), false},
		{"approx without confidence", approx(answer{Value: 1, HalfWidth: &hw}), false},
		{"transport error", result{Req: request{Path: "/v1/approx"}, Err: "transport: refused"}, false},
	}
	for _, c := range cases {
		failed, reasons, err := o.verify(ctx, []result{c.r})
		if err != nil {
			t.Fatal(err)
		}
		if (failed == 0) != c.ok {
			t.Errorf("%s: failed=%d %v, want ok=%v", c.name, failed, reasons, c.ok)
		}
	}

	// Quality: two answers, one covering the truth, one not.
	wide, narrow := truth*0.1, truth*0.001
	qr := []result{
		approx(answer{Value: truth * 1.02, HalfWidth: &wide, Confidence: &conf}),
		approx(answer{Value: truth * 0.98, HalfWidth: &narrow, Confidence: &conf}),
	}
	qual, err := o.measureQuality(ctx, qr)
	if err != nil {
		t.Fatal(err)
	}
	if qual.N != 2 || qual.Coverage != 0.5 || math.Abs(qual.MedianRelError-0.02) > 1e-9 {
		t.Errorf("quality = %+v, want n=2 coverage=0.5 median error 0.02", qual)
	}
}

func TestReadStream(t *testing.T) {
	ok := "event: round\ndata: {\"value\":10,\"half_width\":3,\"confidence\":0.95}\n\n" +
		"event: round\ndata: {\"value\":11,\"half_width\":2,\"confidence\":0.95}\n\n" +
		"event: done\ndata: {\"reason\":\"contract-met\"}\n\n"
	var res result
	if msg := readStream(strings.NewReader(ok), &res); msg != "" {
		t.Fatalf("well-formed stream rejected: %s", msg)
	}
	if res.First.IsZero() || res.Answer.HalfWidth == nil || *res.Answer.HalfWidth != 2 {
		t.Errorf("stream result = %+v, want first-round time and the last interval", res)
	}
	widening := strings.Replace(ok, `"half_width":2`, `"half_width":4`, 1)
	if msg := readStream(strings.NewReader(widening), &result{}); !strings.Contains(msg, "widened") {
		t.Errorf("widening stream gave %q", msg)
	}
	noDone := ok[:strings.Index(ok, "event: done")]
	if msg := readStream(strings.NewReader(noDone), &result{}); !strings.Contains(msg, "done") {
		t.Errorf("stream without done gave %q", msg)
	}
}

func TestSummariseWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(startMS, endMS int, class string, cached bool, errMsg string) result {
		return result{
			Req:   request{Class: class},
			Start: t0.Add(time.Duration(startMS) * time.Millisecond), End: t0.Add(time.Duration(endMS) * time.Millisecond),
			Cached: cached, Err: errMsg,
		}
	}
	rs := []result{
		at(0, 50, classApprox, false, ""),    // warm-up: before the window
		at(100, 110, classApprox, false, ""), // 10 ms
		at(110, 140, classApprox, false, ""), // 30 ms
		at(120, 121, classRepeat, true, ""),  // cached
		at(130, 150, classExact, false, "status 500"),
		at(190, 260, classExact, false, ""), // ends after the window
	}
	d := summarise(rs, t0.Add(100*time.Millisecond), t0.Add(200*time.Millisecond))
	if d.completed != 3 {
		t.Errorf("completed = %d, want 3 (two approx, one cached)", d.completed)
	}
	if got := d.class(classApprox).median(); got != 20 {
		t.Errorf("approx median = %v ms, want 20", got)
	}
	if d.cached.n() != 1 || d.class(classExact).n() != 0 {
		t.Errorf("cached n=%d exact n=%d, want 1 and 0", d.cached.n(), d.class(classExact).n())
	}
	if math.Abs(d.windowS-0.1) > 1e-12 {
		t.Errorf("window = %v s, want 0.1", d.windowS)
	}
}

// TestSummariseKeepsQuietSlices: of four half-second slices, latencies
// come from the one in which requests ran at their usual speed and not
// from the three a neighbour slowed down, however many cheap requests
// those hold; throughput counts them all.
func TestSummariseKeepsQuietSlices(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var rs []result
	add := func(class string, startMS, ms int) {
		rs = append(rs, result{
			Req:   request{Class: class},
			Start: t0.Add(time.Duration(startMS) * time.Millisecond), End: t0.Add(time.Duration(startMS+ms) * time.Millisecond),
		})
	}
	// Slice 0 (slowed): approx takes 20 ms, exact 80 ms.
	for at := 0; at < 500; at += 100 {
		add(classApprox, at, 20)
		add(classExact, at+20, 80)
	}
	// Slice 1 (quiet): 10 ms and 40 ms, twice as many of each.
	for at := 500; at < 1000; at += 50 {
		add(classApprox, at, 10)
		add(classExact, at+10, 40)
	}
	// Slices 2 and 3 (slowed): cheap requests only, many of them.
	for at := 1000; at < 2000; at += 20 {
		add(classApprox, at, 20)
	}
	d := summarise(rs, t0, t0.Add(2*time.Second))
	if d.completed != len(rs) || d.windowS != 2 {
		t.Errorf("counted %d responses over %v s, want all %d over 2 s", d.completed, d.windowS, len(rs))
	}
	if a, e := d.class(classApprox).median(), d.class(classExact).median(); a != 10 || e != 40 {
		t.Errorf("medians approx %v ms exact %v ms, want the quiet slice's 10 and 40", a, e)
	}
}

// TestBenchmarkJSONMatchesHarness: BENCHMARK.json names exactly the
// workloads and metrics the harness reports, with the same units.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	root, err := findRepoRoot()
	if err != nil {
		t.Fatal(err)
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs(false) {
		want = append(want, s.Name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads = %v, harness has %v", names, want)
	}
	var e2e, layers []metricDef
	hasSetup := false
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %v\nharness endToEnd = %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("BENCHMARK.json per_layer = %v\nharness perLayer = %v", layers, perLayer)
	}
}

// TestSmoke runs every workload end to end at 5,000 rows and a
// one-second window against the real binary: every answer must pass the
// oracle, every metric must be reported, the layer-bypass predictions
// must hold, and two runs of one seed must agree exactly on the quality
// metrics (they depend on the seed alone).
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts the server")
	}
	ctx := context.Background()
	e, err := newEnv(ctx, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e.dataDir = t.TempDir()
	o := options{seed: 9, seconds: 1, smoke: true}
	for _, s := range specs(true) {
		timed, err := e.runTimed(ctx, s, o)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if timed.Failed != 0 {
			t.Fatalf("%s: %d of %d answers failed: %v", s.Name, timed.Failed, timed.Attempted, timed.Reasons)
		}
		for _, def := range endToEnd {
			m, ok := timed.Metrics[def.Name]
			if !ok || m.Value <= 0 || math.IsNaN(m.Value) || m.Unit != def.Unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", s.Name, def.Name, m, def.Unit)
			}
		}
		again, err := e.runTimed(ctx, s, o)
		if err != nil {
			t.Fatalf("%s (second run): %v", s.Name, err)
		}
		for _, name := range []string{"median_rel_error", "rel_halfwidth_p50", "ci_coverage"} {
			if a, b := timed.Metrics[name].Value, again.Metrics[name].Value; a != b {
				t.Errorf("%s: %s differs between two runs of one seed: %v vs %v", s.Name, name, a, b)
			}
		}

		traced, err := e.runTraced(ctx, s, o)
		if err != nil {
			t.Fatalf("%s (traced): %v", s.Name, err)
		}
		if traced.Failed != 0 {
			t.Fatalf("%s (traced): %d answers failed: %v", s.Name, traced.Failed, traced.Reasons)
		}
		v := func(name string) float64 {
			m, ok := traced.Metrics[name]
			if !ok {
				t.Fatalf("%s: traced pass did not report %s", s.Name, name)
			}
			return m.Value
		}
		for _, def := range perLayer {
			_ = v(def.Name)
		}
		if len(traced.Spans) == 0 {
			t.Errorf("%s: traced pass recorded no span", s.Name)
		}
		if got := v("server.shed_total"); got != 0 {
			t.Errorf("%s: server shed %v requests", s.Name, got)
		}
		if got := v("store.blocks_decoded"); (got > 0) != (s.Shape == shapeStore) {
			t.Errorf("%s: store.blocks_decoded = %v", s.Name, got)
		}
		if got := v("shard.pruned_share"); (got > 0) != (s.Shape == shapeSharded || s.Shape == shapeFleet) {
			t.Errorf("%s: shard.pruned_share = %v", s.Name, got)
		}
		if got := v("dist.partial_rtt_us"); (got > 0) != (s.Shape == shapeFleet) {
			t.Errorf("%s: dist.partial_rtt_us = %v", s.Name, got)
		}
		switch s.Name {
		case "resident-distinct":
			if got := v("server.cache_hit_ratio"); got != 0 {
				t.Errorf("resident-distinct: cache hit ratio %v, want 0", got)
			}
			// The layers under the handler explain it: what is left to
			// the handler itself stays under a fifth (ISSUE 11).
			for _, class := range []string{"approx", "exact"} {
				h, self := v("server.handler_"+class+"_us"), v("server.handler_self_"+class+"_us")
				if h <= 0 || self > 0.5*h {
					t.Errorf("resident-distinct %s: handler %v us, of which %v unexplained by layer spans", class, h, self)
				}
			}
		case "resident-repeat":
			if got := v("server.cache_hit_ratio"); got < 0.8 {
				t.Errorf("resident-repeat: cache hit ratio %v, want the hit path", got)
			}
			if got := v("client.cached_p50_ms"); got <= 0 {
				t.Errorf("resident-repeat: no cached latency reported")
			}
		}
	}
}
