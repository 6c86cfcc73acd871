package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aqppp/internal/dataset"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef names a metric the harness reports; BENCHMARK.json lists the
// same names and units (TestBenchmarkJSONMatchesHarness holds the two
// together).
type metricDef struct {
	Name string
	Unit string
}

// endToEnd lists what a user of the server sees. Every workload's mix
// contains distinct approx and exact statements, so every workload
// reports every one of these.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_qps", "1/s"},
	{"approx_p50_ms", "ms"},
	{"exact_p50_ms", "ms"},
	{"median_rel_error", "ratio"},
	{"rel_halfwidth_p50", "ratio"},
	{"ci_coverage", "ratio"},
	{"peak_rss_mb", "MB"},
}

// env is where one invocation builds and runs.
type env struct {
	root    string // repository root
	bin     string // built aqppp-serve
	dataDir string // store containers, kept across runs of a checkout
	outDir  string // results.json and trace.json
}

// options are the knobs of one run.
type options struct {
	seed    uint64
	seconds float64
	smoke   bool
}

// warmupSeconds precedes the measured window and is discarded: caches
// fill, the runtime's heap settles, keep-alive connections open.
func (o options) warmupSeconds() float64 {
	if o.smoke {
		return 0.2
	}
	return 1
}

// setupRounds is how many times a run deploys the workload's shape; the
// median is reported as setup_s.
func (o options) setupRounds() int {
	if o.smoke {
		return 1
	}
	return 3
}

// prepared is what every run makes before it talks to a server: the
// oracle's copy of the table and the seeded request generator.
type prepared struct {
	oracle       *oracle
	gen          *generator
	datasetGenS  float64
	workloadGenS float64
	storeFile    string
}

func (e *env) prepare(ctx context.Context, s spec, o options) (*prepared, error) {
	p := &prepared{}
	t0 := time.Now()
	p.oracle = &oracle{tbl: dataset.TPCDSkew(dataset.TPCDConfig{Rows: s.Rows, Seed: dataSeed})}
	p.datasetGenS = time.Since(t0).Seconds()
	t0 = time.Now()
	fams, err := s.drawFamilies(o.seed)
	if err != nil {
		return nil, err
	}
	p.gen, err = newGenerator(o.seed, s.Mix, fams)
	if err != nil {
		return nil, err
	}
	p.workloadGenS = time.Since(t0).Seconds()
	if s.Shape == shapeStore {
		p.storeFile, err = s.ensureStore(ctx, e.bin, e.dataDir)
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

// driveStats summarises one closed-loop window as the client saw it.
type driveStats struct {
	// latency holds cache-missing latencies in ms by class, and by
	// "class/tag" where the workload tags its halves, over the window's
	// quiet slices (see summarise).
	latency   map[string]*sample
	cached    sample
	progFirst sample
	progDone  sample
	// completed counts the 2xx responses of the whole window, windowS
	// seconds long.
	completed int
	windowS   float64
}

func (d *driveStats) class(name string) *sample {
	if s, ok := d.latency[name]; ok {
		return s
	}
	return &sample{}
}

// The measured window is cut into slices of about sliceSeconds and the
// latencies are taken over the quietShare of them in which the server
// got most done. On a few cores of a shared host the hypervisor takes
// the CPU away for tens of milliseconds at a time and a busy sibling
// thread slows it for seconds; both only ever make a slice slower, so
// the fastest slices are the ones that show the program and not its
// neighbours, and on a busy host a class's median over them repeats
// from run to run two to three times closer than its median over the
// whole window (README.md has the numbers). Throughput is taken over
// the whole window: where a few long requests decide it, a slice is
// fast for having drawn none of them, not for being quiet.
const (
	sliceSeconds = 0.5
	quietShare   = 0.25
)

// latencyKey is the class a response's latency is reported under.
func latencyKey(r *result) string {
	if r.Cached {
		return "cached"
	}
	return r.Req.Class
}

// summarise counts the 2xx responses that completed inside [from, to]
// and folds those of the quiet slices into per-class latency samples. A
// slice's work is the sum over its responses of their class's median
// latency over the whole window, so that a slice does not look fast
// for having drawn the cheap classes.
func summarise(results []result, from, to time.Time) *driveStats {
	window := to.Sub(from).Seconds()
	d := &driveStats{latency: make(map[string]*sample), windowS: window}
	slices := max(int(math.Round(window/sliceSeconds)), 1)
	sliceOf := func(r *result) int {
		return min(int(r.End.Sub(from).Seconds()/window*float64(slices)), slices-1)
	}
	var in []*result
	whole := make(map[string]*sample)
	for i := range results {
		r := &results[i]
		if r.End.Before(from) || r.End.After(to) || r.Err != "" {
			continue
		}
		in = append(in, r)
		k := latencyKey(r)
		if whole[k] == nil {
			whole[k] = &sample{}
		}
		whole[k].add(r.latencyMS())
	}
	d.completed = len(in)
	work := make([]float64, slices)
	for _, r := range in {
		work[sliceOf(r)] += whole[latencyKey(r)].median()
	}
	order := make([]int, slices)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return work[order[a]] > work[order[b]] })
	quiet := make([]bool, slices)
	for _, i := range order[:int(math.Ceil(quietShare*float64(slices)))] {
		quiet[i] = true
	}

	add := func(key string, v float64) {
		s := d.latency[key]
		if s == nil {
			s = &sample{}
			d.latency[key] = s
		}
		s.add(v)
	}
	for _, r := range in {
		if !quiet[sliceOf(r)] {
			continue
		}
		ms := r.latencyMS()
		if r.Cached {
			d.cached.add(ms)
			continue
		}
		if r.Req.Class == classProgressive {
			d.progFirst.add(float64(r.First.Sub(r.Start)) / float64(time.Millisecond))
			d.progDone.add(ms)
		}
		add(r.Req.Class, ms)
		if r.Req.Tag != "" {
			add(r.Req.Class+"/"+r.Req.Tag, ms)
		}
	}
	return d
}

// closedLoop drives the deployment for warm+measure seconds and returns
// every result plus the measured window's summary.
func closedLoop(c *client, g *generator, warm, measure float64) ([]result, *driveStats, error) {
	stop := make(chan struct{})
	start := time.Now()
	from := start.Add(time.Duration(warm * float64(time.Second)))
	to := from.Add(time.Duration(measure * float64(time.Second)))
	timer := time.AfterFunc(to.Sub(start), func() { close(stop) })
	defer timer.Stop()
	results, err := c.drive(sequence(g, 0, -1), stop)
	if err != nil {
		return nil, nil, err
	}
	return results, summarise(results, from, to), nil
}

// report is the outcome of one run, tracing off or on.
type report struct {
	Metrics   map[string]metric
	Attempted int
	Failed    int
	// Reasons describes the first few failed answers; Warnings what
	// else the operator should know (a server that shed load).
	Reasons  []string
	Warnings []string
	// Samples counts the observations behind the latency metrics.
	Samples map[string]int
	// Spans is the traced pass's trace (nil with tracing off).
	Spans []span
	stats *driveStats
}

// outcome is the run as the driver reads it.
func (r *report) outcome() outcome {
	return outcome{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// metricsFrom pairs measured values with the units of the metrics a
// pass reports: every listed metric appears (0 when the workload did
// not exercise it) and a value for an unlisted name is an error.
func metricsFrom(defs []metricDef, vals map[string]float64) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, def := range defs {
		out[def.Name] = metric{Value: vals[def.Name], Unit: def.Unit}
	}
	for name := range vals {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("measured %q, which the pass's metric list does not name", name)
		}
	}
	return out, nil
}

// runTimed is the tracing-off run: deploy (several times, for setup_s),
// warm up, measure a closed loop for o.seconds, run the quality pass,
// and check every answer against the oracle.
func (e *env) runTimed(ctx context.Context, s spec, o options) (*report, error) {
	p, err := e.prepare(ctx, s, o)
	if err != nil {
		return nil, err
	}
	// From the first deployment to the last response, the harness and
	// the servers it starts share one CPU (see pinProcess).
	unpin, err := pinProcess()
	if err != nil {
		return nil, err
	}
	defer unpin()
	var setups sample
	var d *deployment
	for round := 0; round < o.setupRounds(); round++ {
		if d != nil {
			d.stop()
		}
		var took time.Duration
		d, took, err = s.deploy(ctx, e.bin, p.storeFile)
		if err != nil {
			return nil, err
		}
		setups.add(took.Seconds())
	}
	defer d.stop()

	c := newClient(d.front.url)
	defer c.close()
	results, stats, err := closedLoop(c, p.gen, o.warmupSeconds(), o.seconds)
	if err != nil {
		return nil, err
	}
	qreqs, err := p.gen.qualityRequests(s.QualityQueries)
	if err != nil {
		return nil, err
	}
	qresults, err := c.drive(fixed(qreqs), nil)
	if err != nil {
		return nil, err
	}
	rep := &report{stats: stats}
	var status statusz
	if err := c.getJSON("/statusz", &status); err != nil {
		return nil, err
	}
	if status.ShedTotal > 0 {
		rep.Warnings = append(rep.Warnings, fmt.Sprintf("server shed %d requests: the harness is overdriving it", status.ShedTotal))
	}
	rss := d.peakRSSMB()
	// Stop the servers before the oracle scans, so its checks have
	// every core to themselves.
	d.stop()
	unpin()

	all := append(results, qresults...)
	rep.Attempted = len(all)
	rep.Failed, rep.Reasons, err = p.oracle.verify(ctx, all)
	if err != nil {
		return nil, err
	}
	q, err := p.oracle.measureQuality(ctx, qresults)
	if err != nil {
		return nil, err
	}
	approx, exact := stats.class(classApprox), stats.class(classExact)
	if approx.n() == 0 || exact.n() == 0 {
		return nil, fmt.Errorf("%s: measured window holds %d approx and %d exact answers; both classes are needed", s.Name, approx.n(), exact.n())
	}
	rep.Metrics, err = metricsFrom(endToEnd, map[string]float64{
		"setup_s":           setups.median(),
		"throughput_qps":    float64(stats.completed) / stats.windowS,
		"approx_p50_ms":     approx.median(),
		"exact_p50_ms":      exact.median(),
		"median_rel_error":  q.MedianRelError,
		"rel_halfwidth_p50": q.RelHalfWidthP50,
		"ci_coverage":       q.Coverage,
		"peak_rss_mb":       rss,
	})
	if err != nil {
		return nil, err
	}
	rep.Samples = map[string]int{
		"approx": approx.n(), "exact": exact.n(), "quality": q.N, "completed": stats.completed,
	}
	return rep, nil
}

// statusz is the part of GET /statusz the harness reads.
type statusz struct {
	ShedTotal   int64 `json:"shed_total"`
	QueuedTotal int64 `json:"queued_total"`
	Cache       *struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
	Contract *struct {
		MetTotal       int64 `json:"met_total"`
		EscalatedTotal int64 `json:"escalated_total"`
	} `json:"contract"`
	Shards []struct {
		Pruned uint64 `json:"pruned"`
		Shards []struct {
			Scans uint64 `json:"scans"`
		} `json:"shards"`
	} `json:"shards"`
	Stores []struct {
		Rows      int   `json:"rows"`
		FileBytes int64 `json:"file_bytes"`
		Cache     struct {
			Hits      int64 `json:"hits"`
			Misses    int64 `json:"misses"`
			Evictions int64 `json:"evictions"`
		} `json:"cache"`
	} `json:"stores"`
	Dist *struct {
		Pruned   uint64 `json:"pruned"`
		Replicas []struct {
			Requests uint64 `json:"requests"`
			Retries  uint64 `json:"retries"`
			Hedges   uint64 `json:"hedges"`
		} `json:"replicas"`
	} `json:"dist"`
}

// describe renders the per-class latency table of a window, for the
// operator (standard error) and results.json.
func (d *driveStats) describe() []string {
	keys := make([]string, 0, len(d.latency))
	for k := range d.latency {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	lines := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		s := d.latency[k]
		lines = append(lines, fmt.Sprintf("%-20s n=%-6d p50=%.3fms p95=%.3fms", k, s.n(), s.median(), s.percentile(0.95)))
	}
	if d.cached.n() > 0 {
		lines = append(lines, fmt.Sprintf("%-20s n=%-6d p50=%.3fms p95=%.3fms", "cached", d.cached.n(), d.cached.median(), d.cached.percentile(0.95)))
	}
	return lines
}

// printMetrics writes "name unit value" lines in name order.
func printMetrics(w *os.File, prefix string, m map[string]metric) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s%s %s %v\n", prefix, n, m[n].Unit, m[n].Value)
	}
}

// newEnv locates the repository, creates the build and output
// directories inside it, and builds the server.
func newEnv(ctx context.Context, outDir string) (*env, error) {
	root, err := findRepoRoot()
	if err != nil {
		return nil, err
	}
	build := filepath.Join(root, ".bench_build")
	e := &env{root: root, dataDir: filepath.Join(build, "data"), outDir: outDir}
	if e.outDir == "" {
		e.outDir = filepath.Join(build, "out")
	}
	for _, dir := range []string{build, e.dataDir, e.outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	e.bin, err = buildServer(ctx, root, build)
	if err != nil {
		return nil, err
	}
	return e, nil
}
