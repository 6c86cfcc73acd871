package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// environment describes where the numbers were taken.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit"`
}

func (e *env) environment(ctx context.Context) environment {
	out := environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", Commit: "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				out.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	// The driver's checkouts are not git repositories; the commit is
	// recorded where there is one.
	cmd := exec.CommandContext(ctx, "git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if rev, err := cmd.Output(); err == nil {
		out.Commit = strings.TrimSpace(string(rev))
	}
	return out
}

// workloadResult is one workload's part of results.json.
type workloadResult struct {
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
	Samples   map[string]int    `json:"samples"`
	Latencies []string          `json:"latencies"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Problems  []string          `json:"problems,omitempty"`
}

// results is results.json.
type results struct {
	Seed        uint64                    `json:"seed"`
	Seconds     float64                   `json:"seconds"`
	Environment environment               `json:"environment"`
	Workloads   map[string]workloadResult `json:"workloads"`
	// DistOverheadMS is fleet minus sharded-local, per class: what the
	// wire and the transport add to the same shard.Group.
	DistOverheadMS map[string]float64 `json:"dist_overhead_ms"`
}

// runAll runs every workload with tracing off and then on, prints every
// metric as "workload name unit value", and writes results.json (the
// traced passes write <workload>-trace.json). It returns the exit code:
// non-zero when any answer failed its check.
func (e *env) runAll(ctx context.Context, o options) int {
	res := results{
		Seed: o.seed, Seconds: o.seconds, Environment: e.environment(ctx),
		Workloads: make(map[string]workloadResult), DistOverheadMS: make(map[string]float64),
	}
	code := 0
	p50 := make(map[string]map[string]float64)
	for _, s := range specs(o.smoke) {
		timed, err := e.runTimed(ctx, s, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", s.Name, err)
			return 1
		}
		traced, err := e.runTraced(ctx, s, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (traced): %v\n", s.Name, err)
			return 1
		}
		reportProblems(append(timed.Reasons, traced.Reasons...), append(timed.Warnings, traced.Warnings...))
		printMetrics(os.Stdout, s.Name+" ", timed.Metrics)
		printMetrics(os.Stdout, s.Name+" ", traced.Metrics)
		wr := workloadResult{
			EndToEnd: timed.Metrics, PerLayer: traced.Metrics, Samples: timed.Samples,
			Latencies: timed.stats.describe(),
			Attempted: timed.Attempted + traced.Attempted, Failed: timed.Failed + traced.Failed,
			Problems: append(append(timed.Reasons, traced.Reasons...), append(timed.Warnings, traced.Warnings...)...),
		}
		res.Workloads[s.Name] = wr
		if wr.Failed > 0 {
			code = 1
		}
		p50[s.Name] = map[string]float64{}
		for class, lat := range timed.stats.latency {
			p50[s.Name][class] = lat.median()
		}
	}
	for class, fleet := range p50["fleet"] {
		if local, ok := p50["sharded-local"][class]; ok && !strings.Contains(class, "/") {
			res.DistOverheadMS[class] = fleet - local
			fmt.Printf("fleet dist.overhead_ms.%s ms %v\n", class, fleet-local)
		}
	}
	path := filepath.Join(e.outDir, "results.json")
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return code
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// selfCheck applies the driver's steadiness rule to this machine: n
// tracing-off runs per workload on seeds seed..seed+n-1, and for each
// end-to-end metric the distance between the quartiles of the n values
// as a share of their median, against the metric's bound in
// BENCHMARK.json. A p95 whose spread passes a tenth is marked for
// demotion to the per-layer list. One traced run per workload then
// shows what the socket adds to the in-process handler.
func (e *env) selfCheck(ctx context.Context, o options, only string, n int) int {
	bf, err := readBenchmarkFile(e.root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	code := 0
	for _, s := range specs(o.smoke) {
		if only != "" && s.Name != only {
			continue
		}
		values := make(map[string][]float64)
		for i := 0; i < n; i++ {
			run := o
			run.seed = o.seed + uint64(i)
			rep, err := e.runTimed(ctx, s, run)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s seed %d: %v\n", s.Name, run.seed, err)
				return 1
			}
			reportProblems(rep.Reasons, rep.Warnings)
			if rep.Failed > 0 {
				code = 1
			}
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, m := range bf.EndToEnd {
			spread := quartileSpread(values[m.Name])
			verdict := "ok"
			switch {
			case m.Name != "setup_s" && spread > m.Bound:
				verdict = "EXCEEDS BOUND"
				code = 1
			case strings.HasSuffix(m.Name, "_p95_ms") && spread > 0.10:
				verdict = "demote: p95 does not repeat within a tenth"
			case spread > m.Bound/3:
				verdict = "above a third of the bound"
			}
			fmt.Printf("%s %s median %v %s spread %.4f bound %.2f %s\n",
				s.Name, m.Name, medianOf(values[m.Name]), m.Unit, spread, m.Bound, verdict)
		}
		traced, err := e.runTraced(ctx, s, o)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s (traced): %v\n", s.Name, err)
			return 1
		}
		fmt.Printf("%s tracing: in-process handler p50 %.1f us, socket and client add %.1f us (approx)\n",
			s.Name, traced.Metrics["server.handler_approx_us"].Value, traced.Metrics["server.http_overhead_us"].Value)
	}
	return code
}
