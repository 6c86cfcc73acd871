// Command aqppp-serve exposes one table behind the HTTP query API in
// internal/server: exact SQL over POST /v1/query, AQP++ approximate
// answers over POST /v1/approx, handle management over /v1/prepare and
// DELETE /v1/prepared/{name}, plus /healthz, /readyz, /statusz, and a
// Prometheus /metrics endpoint. Responses are cached (tune with
// -cache-bytes/-cache-ttl) and per-client quotas are available with
// -quota-rps.
//
// Usage:
//
//	aqppp-serve -demo tpcd -rows 200000 -agg l_extendedprice -dims l_orderkey,l_suppkey
//	aqppp-serve -csv trips.csv -addr :8080
//	aqppp-serve -data lineitem.aqps
//
// With -agg and -dims the server pre-builds one prepared handle (named
// by -prepare, default "default") before accepting traffic; otherwise
// handles are built on demand through POST /v1/prepare. Add -save to
// persist the table and startup handle as a store container once the
// build finishes; a later -data run (pointing at that file, or at a
// directory of .aqps files) restores tables and handles at startup
// without rebuilding anything — data blocks fault in lazily as queries
// touch them.
//
// The binary also serves as one process of a distributed fleet. With
// -replica h/N it loads the table, keeps only shard h of an N-way
// layout on -shard-col, and serves the fleet-internal GET /v1/shard
// and POST /v1/partial endpoints alongside the public API. With
// -coordinator -peers url,url it loads nothing: it dials every
// replica, assembles the fleet's schema and shared handles, and
// answers public queries by fanning partials out over the network —
// bit-identical to an in-process -shards N run over the same data.
// Clients enter through the coordinator, so its -quota-rps bucket is
// the fleet's one per-client quota.
//
// SIGTERM or SIGINT starts a graceful drain: /readyz flips to 503,
// in-flight queries finish within -drain-timeout, stragglers are
// hard-canceled. Exit status 0 means a clean drain, 1 a forced one.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"aqppp"
	"aqppp/internal/dataset"
	"aqppp/internal/dist"
	"aqppp/internal/engine"
	"aqppp/internal/server"
	"aqppp/internal/shard"
)

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	csvPath := flag.String("csv", "", "CSV table file to load")
	data := flag.String("data", "", "store container (.aqps file or directory of them) to serve from disk, with persisted prepared handles")
	save := flag.String("save", "", "persist the table and startup handle to this store container after preparing")
	demo := flag.String("demo", "", "generate a demo dataset: tpcd | bigbench | tlctrip")
	rows := flag.Int("rows", 200000, "rows for -demo")
	seed := flag.Uint64("seed", 42, "random seed")
	agg := flag.String("agg", "", "aggregation attribute for the startup prepared handle")
	dims := flag.String("dims", "", "comma-separated condition attributes for the startup handle")
	rate := flag.Float64("sample-rate", 0.01, "uniform sample rate for the startup handle")
	k := flag.Int("k", 5000, "BP-Cube cell budget for the startup handle")
	withMinMax := flag.Bool("minmax", false, "also build exact MIN/MAX indexes on the startup handle")
	handle := flag.String("prepare", "default", "name of the startup prepared handle")
	maxConc := flag.Int("max-concurrent", 0, "max queries executing at once (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "max queries waiting for a slot (0 = 4x max-concurrent)")
	defTimeout := flag.Duration("default-timeout", 30*time.Second, "per-request deadline when the request has no timeout_ms (0 = unlimited)")
	maxTimeout := flag.Duration("max-timeout", 5*time.Minute, "cap on any request's timeout (0 = no cap)")
	maxResamples := flag.Int("max-resamples", 100000, "cap on bootstrap resamples per request (0 = unlimited)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second, "how long a shutdown waits for in-flight queries")
	drainPause := flag.Duration("drain-pause", 0, "keep accepting this long after /readyz flips to 503")
	cacheBytes := flag.Int64("cache-bytes", 0, "response cache size in bytes (0 = 32 MiB default, negative = disable)")
	cacheTTL := flag.Duration("cache-ttl", 0, "response cache entry TTL (0 = 60s default, negative = no age expiry)")
	quotaRPS := flag.Float64("quota-rps", 0, "per-client sustained requests/second for cache-missing requests (0 = no quotas)")
	quotaBurst := flag.Int("quota-burst", 0, "per-client burst depth (0 = 2x quota-rps, min 1)")
	quotaMaxClients := flag.Int("quota-max-clients", 0, "max tracked client buckets (0 = 4096)")
	quiet := flag.Bool("quiet", false, "suppress the per-request access log")
	shards := flag.Int("shards", 1, "partition the table into N shards for scatter-gather execution (1 = unsharded)")
	shardCol := flag.String("shard-col", "", "clustering column for -shards / -replica (default: first of -dims)")
	replicaSpec := flag.String("replica", "", "serve as shard replica h/N of the table (e.g. 0/2), keeping only that slice")
	coordinator := flag.Bool("coordinator", false, "serve as fleet coordinator: load nothing, fan queries out over -peers")
	peers := flag.String("peers", "", "comma-separated replica base URLs for -coordinator (http://host:port,...)")
	replicaTimeout := flag.Duration("replica-timeout", 5*time.Second, "coordinator: per-attempt timeout for one replica partial")
	replicaRetries := flag.Int("replica-retries", 2, "coordinator: retries per replica on transient failure")
	dialTimeout := flag.Duration("dial-timeout", 30*time.Second, "coordinator: how long to keep retrying the -peers handshake at startup")
	flag.Parse()

	if *coordinator && *replicaSpec != "" {
		fmt.Fprintln(os.Stderr, "-coordinator and -replica are exclusive roles")
		return 1
	}
	if *coordinator && (*csvPath != "" || *demo != "" || *data != "" || *shards > 1 || *save != "" || *agg != "" || *dims != "") {
		fmt.Fprintln(os.Stderr, "-coordinator loads and prepares nothing; it fronts the data and handles the -peers replicas own")
		return 1
	}
	if *replicaSpec != "" && (*data != "" || *shards > 1 || *save != "") {
		fmt.Fprintln(os.Stderr, "-replica needs a resident table to slice; it excludes -data, -shards, and -save")
		return 1
	}

	db := aqppp.NewDB()
	defer db.CloseStores()

	var tbl *engine.Table
	var storedPreps []aqppp.NamedPrep
	if *coordinator {
		// The replicas own the data; the coordinator loads nothing.
	} else if *data != "" {
		if *csvPath != "" || *demo != "" {
			fmt.Fprintln(os.Stderr, "-data replaces -csv/-demo; pick one source")
			return 1
		}
		if *shards > 1 {
			fmt.Fprintln(os.Stderr, "-shards does not apply to store-served tables")
			return 1
		}
		paths, err := storePaths(*data)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		for _, p := range paths {
			t0 := time.Now()
			preps, err := db.OpenStore(p)
			if err != nil {
				fmt.Fprintf(os.Stderr, "open %s: %v\n", p, err)
				return 1
			}
			storedPreps = append(storedPreps, preps...)
			fmt.Fprintf(os.Stderr, "opened %s: %d prepared handle(s) in %v (no rebuild)\n",
				p, len(preps), time.Since(t0).Round(time.Millisecond))
		}
		if names := db.TableNames(); len(names) == 1 {
			tbl, _ = db.LookupTable(names[0])
		}
	} else {
		var err error
		tbl, err = dataset.Load(context.Background(), *csvPath, *demo, *rows, *seed)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	// prepSeed/prepBudget feed the startup handle; a replica derives
	// them per shard so its build is bit-identical to the matching
	// stratum of an in-process -shards run.
	prepSeed, prepBudget := *seed, *k
	var coord *dist.Coordinator
	var replicaRole *server.ReplicaRole
	switch {
	case *coordinator:
		urls := splitPeers(*peers)
		if len(urls) == 0 {
			fmt.Fprintln(os.Stderr, "-coordinator needs -peers with at least one replica URL")
			return 1
		}
		dcfg := dist.Config{Timeout: *replicaTimeout, Retries: *replicaRetries}
		fmt.Fprintf(os.Stderr, "dialing %d replica(s) (handshake timeout %v)...\n", len(urls), *dialTimeout)
		dctx, dcancel := context.WithTimeout(context.Background(), *dialTimeout)
		c, err := dist.Dial(dctx, urls, dcfg)
		dcancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		coord = c
		if err := db.RegisterDistributed(coord.SchemaTable(), coord); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "fleet assembled: table %q across %d replicas, %d shared handle(s)\n",
			coord.Table(), len(urls), len(coord.Handles()))
	case *replicaSpec != "":
		index, count, err := parseReplicaSpec(*replicaSpec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		col := *shardCol
		if col == "" && *dims != "" {
			col = strings.Split(*dims, ",")[0]
		}
		if col == "" {
			fmt.Fprintln(os.Stderr, "-replica needs -shard-col (or -dims to default from)")
			return 1
		}
		layout := shard.Layout{Strategy: shard.ByRange, Column: col, N: count}
		slice, ident, err := dist.SliceTable(tbl, layout, index)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		tbl = slice
		if err := db.Register(tbl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		prepSeed = shard.DeriveSeed(*seed, index)
		prepBudget = shard.SplitBudget(*k, count)
		replicaRole = &server.ReplicaRole{Table: tbl.Name, Ident: ident}
		fmt.Fprintf(os.Stderr, "serving shard %d/%d of %q on %s: %d rows\n",
			index, count, tbl.Name, col, ident.Rows)
	case *data != "":
		// Tables and handles came from the store; nothing to register here.
	case *shards > 1:
		col := *shardCol
		if col == "" && *dims != "" {
			col = strings.Split(*dims, ",")[0]
		}
		if col == "" {
			fmt.Fprintln(os.Stderr, "-shards needs -shard-col (or -dims to default from)")
			return 1
		}
		fmt.Fprintf(os.Stderr, "partitioning %q into %d shards on %s...\n", tbl.Name, *shards, col)
		if err := db.RegisterSharded(tbl, aqppp.ShardOptions{Column: col, Shards: *shards}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	default:
		if err := db.Register(tbl); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	cfg := server.Config{
		MaxConcurrent:   *maxConc,
		MaxQueue:        *maxQueue,
		DefaultTimeout:  *defTimeout,
		MaxTimeout:      *maxTimeout,
		MaxResamples:    *maxResamples,
		DrainPause:      *drainPause,
		CacheMaxBytes:   *cacheBytes,
		CacheTTL:        *cacheTTL,
		QuotaRate:       *quotaRPS,
		QuotaBurst:      *quotaBurst,
		QuotaMaxClients: *quotaMaxClients,
		Replica:         replicaRole,
		Coordinator:     coord,
	}
	if !*quiet {
		cfg.AccessLog = os.Stderr
	}
	srv := server.New(db, cfg)

	if coord != nil {
		for _, h := range coord.Handles() {
			prep, err := db.DistPrepared(coord.Table(), h.Name, h.Confidence, h.SampleRows)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			if err := srv.RegisterPrepared(h.Name, prep); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "handle %q shared by every replica\n", h.Name)
		}
	}

	for _, np := range storedPreps {
		if err := srv.RegisterPrepared(np.Name, np.Prep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "handle %q restored from store\n", np.Name)
	}

	var startupPrep *aqppp.Prepared
	if *agg != "" && *dims != "" {
		if tbl == nil {
			fmt.Fprintln(os.Stderr, "-agg/-dims need a single table; the -data directory holds several")
			return 1
		}
		fmt.Fprintf(os.Stderr, "preparing handle %q for [%s; %s] (rate %.3g, k %d)...\n",
			*handle, *agg, *dims, *rate, *k)
		t0 := time.Now()
		prep, err := db.Prepare(context.Background(), aqppp.PrepareOptions{
			Table: tbl.Name, Aggregate: *agg,
			Dimensions: strings.Split(*dims, ","),
			SampleRate: *rate, CellBudget: prepBudget, Seed: prepSeed,
			WithMinMax: *withMinMax,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := srv.RegisterPrepared(*handle, prep); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		startupPrep = prep
		fmt.Fprintf(os.Stderr, "handle %q ready in %v\n", *handle, time.Since(t0).Round(time.Millisecond))
	}

	if *save != "" {
		if *data != "" {
			fmt.Fprintln(os.Stderr, "-save needs a resident table; -data tables are already persisted")
			return 1
		}
		if *shards > 1 {
			fmt.Fprintln(os.Stderr, "-save does not support sharded tables")
			return 1
		}
		t0 := time.Now()
		var named []aqppp.NamedPrep
		if startupPrep != nil {
			named = append(named, aqppp.NamedPrep{Name: *handle, Prep: startupPrep})
		}
		if err := db.SaveStore(*save, tbl.Name, named...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "saved store %s in %v\n", *save, time.Since(t0).Round(time.Millisecond))
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// The smoke test (and port-0 users generally) parse this line for the
	// bound address; keep it on stdout and keep its shape stable.
	fmt.Printf("listening on %s\n", l.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, os.Interrupt)
	select {
	case sig := <-sigs:
		fmt.Fprintf(os.Stderr, "%v: draining (timeout %v)\n", sig, *drainTimeout)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "forced shutdown: %v\n", err)
		<-serveErr
		return 1
	}
	if err := <-serveErr; err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintln(os.Stderr, "drained cleanly")
	return 0
}

// parseReplicaSpec parses -replica's "h/N" shard assignment.
func parseReplicaSpec(spec string) (index, count int, err error) {
	n, err := fmt.Sscanf(spec, "%d/%d", &index, &count)
	if err != nil || n != 2 || count < 1 || index < 0 || index >= count {
		return 0, 0, fmt.Errorf("-replica wants h/N with 0 <= h < N, got %q", spec)
	}
	return index, count, nil
}

// splitPeers parses -peers' comma-separated URL list.
func splitPeers(peers string) []string {
	var urls []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			urls = append(urls, p)
		}
	}
	return urls
}

// storePaths resolves -data: a .aqps file is served as is; a directory
// serves every *.aqps inside it, in name order.
func storePaths(data string) ([]string, error) {
	fi, err := os.Stat(data)
	if err != nil {
		return nil, err
	}
	if !fi.IsDir() {
		return []string{data}, nil
	}
	matches, err := filepath.Glob(filepath.Join(data, "*.aqps"))
	if err != nil {
		return nil, err
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("no .aqps store containers in %s", data)
	}
	sort.Strings(matches)
	return matches, nil
}
