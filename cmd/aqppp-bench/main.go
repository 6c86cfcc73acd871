// Command aqppp-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	aqppp-bench [flags] [experiment ...]
//
// Experiments are the names in experiments.All: table1, figure7, figure8,
// figure9, figure10a, figure10b, figure11a, figure11b, ablations, shard,
// or "all" (the default). The shard experiment measures scatter-gather
// scaling over the counts given by -shards.
//
// Flags override the AQPPP_* environment scale knobs:
//
//	aqppp-bench -tpcd-rows 2000000 -queries 1000 -k 50000 table1
//
// Ctrl-C (SIGINT) cancels the run: the active experiment unwinds at its
// next cancellation check (one hill-climb step or cube stage) and the
// command exits nonzero. -timeout bounds the whole run the same way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"time"

	"aqppp/internal/experiments"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run parses args, runs the chosen experiments under ctx, and returns the
// exit code: 0 on success, 1 when an experiment failed, 2 on bad usage.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	o := experiments.Options{Scale: experiments.FromEnv()}
	fs := flag.NewFlagSet("aqppp-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&o.TPCDRows, "tpcd-rows", o.TPCDRows, "TPCD-Skew lineitem rows")
	fs.IntVar(&o.BigBenchRows, "bigbench-rows", o.BigBenchRows, "BigBench UserVisits rows")
	fs.IntVar(&o.TLCRows, "tlc-rows", o.TLCRows, "TLCTrip rows")
	fs.IntVar(&o.Queries, "queries", o.Queries, "queries per workload")
	fs.Float64Var(&o.SampleRate, "sample-rate", o.SampleRate, "uniform sample rate")
	fs.IntVar(&o.K, "k", o.K, "BP-Cube cell budget")
	fs.Uint64Var(&o.Seed, "seed", o.Seed, "random seed")
	fs.IntVar(&o.MaxDims, "max-dims", 0, "cap on #dimensions for figure7/figure11b (0 = all ten)")
	timeout := fs.Duration("timeout", 0, "bound the whole run's wall time (0 = unlimited)")
	shardCounts := fs.String("shards", "1,2,4,8", "comma-separated shard counts for the shard experiment")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	var err error
	if o.Shards, err = parseCounts(*shardCounts); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	names := fs.Args()
	if len(names) == 0 {
		names = []string{"all"}
	}
	var chosen []experiments.Experiment
	for _, name := range names {
		if name == "all" {
			chosen = experiments.All
			break
		}
		i := slices.IndexFunc(experiments.All, func(e experiments.Experiment) bool { return e.Name == name })
		if i < 0 {
			var valid []string
			for _, e := range experiments.All {
				valid = append(valid, e.Name)
			}
			fmt.Fprintf(stderr, "unknown experiment %q; choose from %v or all\n", name, valid)
			return 2
		}
		chosen = append(chosen, experiments.All[i])
	}

	fmt.Fprintf(stdout, "aqppp-bench: scale = %+v\n\n", o.Scale)
	code := 0
	for _, e := range chosen {
		start := time.Now()
		rep, err := e.Run(ctx, o)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", e.Name, err)
			code = 1
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				break
			}
			continue
		}
		fmt.Fprintf(stdout, "=== %s (ran in %v) ===\n%s\n", e.Name, time.Since(start).Round(time.Millisecond), rep)
	}
	return code
}

// parseCounts parses the -shards list ("1,2,4,8") into shard counts.
func parseCounts(s string) ([]int, error) {
	var counts []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-shards: bad count %q (want positive integers, e.g. 1,2,4,8)", part)
		}
		counts = append(counts, n)
	}
	return counts, nil
}
