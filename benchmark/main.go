// Command benchmark is the repository's benchmark: it builds the real
// aqppp-serve binary, starts it in one of five deployment shapes, drives
// it over loopback HTTP in a closed loop with requests generated from a
// seed, checks every answer against an in-process oracle, and reports
// what a client sees (tracing off) or where the time goes layer by layer
// (tracing on). BENCHMARK.json at the repository root names the
// workloads and metrics; README.md in this directory explains them.
//
// The benchmark's driver runs one workload per invocation:
//
//	bash benchmark/run.sh --workload W --seed N --seconds T --trace 0|1
//
// and reads the last line of standard output, one JSON object. Without
// --workload every workload runs, tracing off and then on, and every
// metric is printed as "workload name unit value".
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

// outcome is the object printed as the last line of standard output.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "workload to run (default: all of them, tracing off and on)")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same request list")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics with tracing off, 1 = per-layer metrics from the traced pass")
	out := flag.String("out", "", "directory for results.json and trace.json (default .bench_build/out in the repository)")
	smoke := flag.Bool("smoke", false, "tiny tables and windows, for the harness's own tests")
	repeat := flag.Int("repeat", 0, "self-check: run N sets with seeds seed..seed+N-1 and print each metric's spread against its bound")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "unexpected argument %q\n", flag.Arg(0))
		return 2
	}

	// A signal cancels ctx, and every server process was started under
	// it: each gets SIGTERM and is waited for before the harness exits.
	ctx, cancel := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer cancel()

	e, err := newEnv(ctx, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	o := options{seed: *seed, seconds: *seconds, smoke: *smoke}
	switch {
	case *repeat > 0:
		return e.selfCheck(ctx, o, *workload, *repeat)
	case *workload == "":
		return e.runAll(ctx, o)
	}
	s, err := specByName(*workload, *smoke)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	pass := e.runTimed
	if *trace != 0 {
		pass = e.runTraced
	}
	rep, err := pass(ctx, s, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	reportProblems(rep.Reasons, rep.Warnings)
	for _, line := range rep.stats.describe() {
		fmt.Fprintln(os.Stderr, line)
	}
	printMetrics(os.Stdout, "", rep.Metrics)
	res := rep.outcome()
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func reportProblems(reasons, warnings []string) {
	for _, r := range reasons {
		fmt.Fprintln(os.Stderr, "FAILED:", r)
	}
	for _, w := range warnings {
		fmt.Fprintln(os.Stderr, "warning:", w)
	}
}
