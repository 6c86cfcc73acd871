// Command aqppp-cli is an interactive SQL shell over the engine with
// three answering modes: approximate (AQP++), sample-only (plain AQP) and
// exact. It queries a store container or CSV file produced by aqppp-gen,
// or generates a demo dataset in-process.
//
// Usage:
//
//	aqppp-cli -data lineitem.aqps -agg l_extendedprice -dims l_orderkey,l_suppkey
//	aqppp-cli -demo tpcd -rows 200000 -agg l_extendedprice -dims l_orderkey,l_suppkey
//
// Shell commands:
//
//	SELECT ...;          answer approximately with AQP++
//	.aqp SELECT ...;     answer with plain AQP (same sample)
//	.exact SELECT ...;   answer exactly (full scan)
//	.progress SELECT ...; stream refining estimates (online aggregation)
//	.stats               preprocessing statistics
//	.schema              table schema
//	.help                this help
//	.quit
//
// With -max-rel-error and/or -max-abs-error set, default-mode
// statements answer under an a-priori error contract: the planner
// picks the cheapest strategy that provably meets the bound and the
// shell prints which one served; an unreachable bound fails with kind
// contract-infeasible (exit code 2 under -e) unless -allow-exact
// permits escalation to a full scan.
//
// With -e the shell is skipped: the semicolon-separated statements run
// in order (".exact"/".aqp" prefixes work as in the shell) and the
// process exits with a code that classifies the first failure —
// 0 success, 2 parse/unsupported/unknown-table, 3 budget-exceeded or
// canceled, 1 anything else. The same classification applies when
// preparation itself fails.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"aqppp"
	"aqppp/internal/dataset"
	"aqppp/internal/engine"
	"aqppp/internal/repl"
)

// interrupter turns SIGINT into per-query cancellation: Ctrl-C aborts
// the statement (or preparation) in flight instead of killing the
// shell. With nothing in flight the signal is dropped.
type interrupter struct {
	mu      sync.Mutex
	current context.CancelFunc
}

func newInterrupter() *interrupter {
	it := &interrupter{}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt)
	go func() {
		for range sigs {
			it.mu.Lock()
			if it.current != nil {
				it.current()
			}
			it.mu.Unlock()
		}
	}()
	return it
}

// NewContext returns a fresh context that the next SIGINT cancels; its
// cancel detaches it again.
func (it *interrupter) NewContext() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	it.mu.Lock()
	it.current = cancel
	it.mu.Unlock()
	return ctx, func() {
		it.mu.Lock()
		if it.current != nil {
			it.current = nil
		}
		it.mu.Unlock()
		cancel()
	}
}

// exitCode folds the error taxonomy into stable process exit codes so
// scripts can tell "fix the statement" (2) from "raise the budget or
// retry" (3) from "file a bug" (1). The kinds are the same wire-stable
// set internal/server maps onto HTTP statuses.
func exitCode(err error) int {
	if err == nil {
		return 0
	}
	switch aqppp.ErrorKindOf(err) {
	case aqppp.ErrParse, aqppp.ErrUnsupported, aqppp.ErrUnknownTable, aqppp.ErrContractInfeasible:
		return 2
	case aqppp.ErrBudgetExceeded, aqppp.ErrCanceled:
		return 3
	default:
		return 1
	}
}

func main() {
	os.Exit(run())
}

func run() int {
	csvPath := flag.String("csv", "", "CSV table file to load")
	data := flag.String("data", "", "store container (.aqps file from aqppp-gen or aqppp-serve -save) to query from disk")
	demo := flag.String("demo", "", "generate a demo dataset: tpcd | bigbench | tlctrip")
	rows := flag.Int("rows", 200000, "rows for -demo")
	agg := flag.String("agg", "", "aggregation attribute for the prepared template")
	dims := flag.String("dims", "", "comma-separated condition attributes")
	rate := flag.Float64("sample-rate", 0.01, "uniform sample rate")
	k := flag.Int("k", 5000, "BP-Cube cell budget")
	seed := flag.Uint64("seed", 42, "random seed")
	withMinMax := flag.Bool("minmax", false, "also build exact MIN/MAX indexes")
	timeout := flag.Duration("timeout", 0, "per-statement wall-time bound (0 = unlimited)")
	maxRel := flag.Float64("max-rel-error", 0, "error contract: max relative half-width, e.g. 0.01 = ±1% (0 = none)")
	maxAbs := flag.Float64("max-abs-error", 0, "error contract: max absolute half-width (0 = none)")
	contractConf := flag.Float64("contract-confidence", 0, "CI level the contract holds at (0 = 0.95)")
	allowExact := flag.Bool("allow-exact", false, "permit contract escalation to a full exact scan")
	script := flag.String("e", "", "run semicolon-separated statements non-interactively and exit")
	flag.Parse()

	db := aqppp.NewDB()
	defer func() { _ = db.CloseStores() }() // read-only stores
	tbl, err := loadTable(db, *data, *csvPath, *demo, *rows, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitCode(err)
	}
	if *agg == "" || *dims == "" {
		fmt.Fprintln(os.Stderr, "need -agg and -dims to prepare AQP++ (e.g. -agg l_extendedprice -dims l_orderkey,l_suppkey)")
		return 2
	}
	it := newInterrupter()

	fmt.Printf("preparing AQP++ for [%s; %s] (rate %.3g, k %d)...\n", *agg, *dims, *rate, *k)
	t0 := time.Now()
	prepCtx, prepCancel := it.NewContext()
	prep, err := db.Prepare(prepCtx, aqppp.PrepareOptions{
		Table: tbl.Name, Aggregate: *agg,
		Dimensions: strings.Split(*dims, ","),
		SampleRate: *rate, CellBudget: *k, Seed: *seed,
		WithMinMax: *withMinMax,
	})
	prepCancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitCode(err)
	}
	fmt.Printf("ready in %v. Table %q, %d rows. Type .help for commands.\n",
		time.Since(t0).Round(time.Millisecond), tbl.Name, tbl.NumRows())

	session := repl.NewSession(db, tbl, prep)
	session.Timeout = *timeout
	session.NewContext = it.NewContext
	if *maxRel > 0 || *maxAbs > 0 {
		session.Contract = &aqppp.Contract{
			MaxRelError: *maxRel,
			MaxAbsError: *maxAbs,
			Confidence:  *contractConf,
			AllowExact:  *allowExact,
		}
	}
	if *script != "" {
		if err := session.RunScript(*script, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			return exitCode(err)
		}
		return 0
	}
	if err := session.Run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// loadTable registers the one table the shell queries: the store
// container at data (served from disk, like aqppp-serve -data), or a
// resident table from the -csv / -demo sources.
func loadTable(db *aqppp.DB, data, csvPath, demo string, rows int, seed uint64) (*engine.Table, error) {
	if data != "" {
		if csvPath != "" || demo != "" {
			return nil, fmt.Errorf("-data replaces -csv/-demo; pick one source")
		}
		if _, err := db.OpenStore(data); err != nil {
			return nil, err
		}
		tbl, _ := db.LookupTable(db.TableNames()[0])
		return tbl, nil
	}
	tbl, err := dataset.Load(context.Background(), csvPath, demo, rows, seed)
	if err != nil {
		return nil, err
	}
	return tbl, db.Register(tbl)
}
