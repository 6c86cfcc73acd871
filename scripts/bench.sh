#!/bin/sh
# bench.sh — the four microbenchmark suites and their recorded baselines,
# named once for the gate, CI's bench-guard and the nightly strict run:
#
#   scripts/bench.sh <benchtime> <count> [-shard-bench <regexp>] [benchguard flags...]
#
# runs every suite with -benchtime <benchtime> -count <count>, collects
# the raw output in bench-raw.txt, and hands it to benchguard with all
# four BENCH_*.json baselines plus the given flags (-tolerance, -strict).
# -shard-bench narrows the shard suite, which is minutes long at full
# width, to the benchmarks matching <regexp>.
set -eu

cd "$(dirname "$0")/.."
. scripts/steps.sh

benchtime=$1
count=$2
shift 2
shard_bench=BenchmarkShard
if [ "${1:-}" = "-shard-bench" ]; then
    shard_bench=$2
    shift 2
fi

raw=bench-raw.txt
: > "$raw"

# suite <name> <bench regexp> <package>
suite() {
    step "$1 bench (benchtime $benchtime, count $count)"
    go test -run '^$' -bench "$2" -benchtime "$benchtime" -count "$count" "$3" | tee -a "$raw"
    step_done
}
suite engine BenchmarkEngine ./internal/engine
suite shard "$shard_bench" ./internal/shard
suite store BenchmarkStore ./internal/store
suite contract BenchmarkContract ./internal/contract

step "benchguard $*"
go run ./scripts/benchguard.go \
    -baseline BENCH_engine.json,BENCH_shard.json,BENCH_store.json,BENCH_contract.json \
    "$@" "$raw"
step_done
