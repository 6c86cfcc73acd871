#!/bin/sh
# check.sh — the repo's expanded tier-1 verification gate.
# Runs: build, gofmt, go vet, aqppp-lint, the race-enabled test suite,
# every example program, the server smokes, and one-iteration bench
# smokes with the recorded baselines loaded. Exits non-zero on the first
# failure.
#
# Each static property has one owner, so no step here is redundant and
# none may be dropped or reordered away:
#   go vet      — copied locks (copylocks) and lost context cancel funcs
#                 (lostcancel); aqppp-lint no longer checks either.
#   aqppp-lint  — determinism, float-eq, dropped-error, panic, ctx-first,
#                 lock-balance (the only static check of the Lock()s not
#                 followed by a defer Unlock).
#   go build    — a held ctx reaching the scan or load it starts: every
#                 engine/shard operation exists once, ctx first, so the
#                 signature owns what ctx-propagation used to
#                 (TestEngineSurface, TestShardedSurface pin the names).
#   go test -race — unsynchronised access to mutex-guarded fields, on the
#                 interleavings the per-type concurrent tests produce.
# The typed sync/atomic values and go 1.22 loop variables need no step.
set -eu

cd "$(dirname "$0")/.."

. scripts/steps.sh

step "go build ./..."
go build ./...
step_done

step "gofmt -l"
# Exclude the lint testdata module: its files seed deliberate violations
# and are formatted, but keep the filter explicit in case that changes.
unformatted=$(gofmt -l . | grep -v '^internal/lint/testdata/' || true)
if [ -n "$unformatted" ]; then
    echo "gofmt: files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi
step_done

step "go vet ./..."
go vet ./...
step_done

step "aqppp-lint ./..."
go run ./cmd/aqppp-lint ./...
step_done

step "go test -race ./..."
go test -race ./...
step_done

step "examples (build and run each)"
# go build ./... compiles examples/*, but only running them shows they
# still work end to end; each exits non-zero on any failure.
go build -o .examples_build/ ./examples/...
for ex in .examples_build/*; do
    echo "    $ex"
    "$ex" > /dev/null
done
step_done

step "benchmark harness (go -C benchmark vet + test)"
# benchmark/ is a module of its own (replace aqppp => ../), so the root
# ./... patterns above never compile it. Its one package main builds
# against the root API and drives the real aqppp-serve in all five
# BENCHMARK.json shapes; a refactor that breaks that surface must fail
# here, not in the benchmark driver.
go -C benchmark vet ./...
go -C benchmark test -count=1 ./...
step_done

step "cancellation flake hunt (-race -run Cancel -count=5)"
# Cancellation is inherently racy machinery: a stop flag armed by
# context.AfterFunc, polled by scan/climb/resample loops. Run the
# TestCancel* suite five times under the race detector to shake out
# ordering-dependent flakes before they reach CI.
go test -race -run Cancel -count=5 ./...
step_done

if [ "${AQPPP_SKIP_SERVER_SMOKE:-}" = "1" ]; then
    echo "==> server smoke skipped (AQPPP_SKIP_SERVER_SMOKE=1)"
else
    step "server smoke (serve, query, cache, shed, quota, contract, SSE, drain)"
    # Exercises the real aqppp-serve binary end to end: build it, serve a
    # small demo table on a random port, answer one exact and one approx
    # query, repeat one for a cache hit, burst distinct clients past the
    # capacity-1 admission gate expecting 429 "overloaded", exhaust one
    # client's token bucket expecting 429 "quota-exceeded" (the two sheds
    # must stay distinguishable), scrape /metrics, then SIGTERM and
    # require a clean drain (exit 0). Gated behind the env var so
    # `go test ./...` above stays fast; CI runs it on one matrix leg only.
    # The restart leg saves a store container, restarts from -data alone,
    # and requires identical answers with no rebuild. The fleet leg runs
    # two replica processes plus a coordinator against a single-process
    # sharded oracle: answers must match bit for bit, and killing a
    # replica must shed 503 "unavailable" instead of a silent partial sum.
    # The contract leg answers a feasible contract inside its bound,
    # rejects an impossible one 422 with tightest_achievable, streams a
    # progressive SSE answer to a well-formed terminal event, and proves
    # a mid-stream disconnect lands on the canceled counter.
    AQPPP_SERVER_SMOKE=1 go test -race -count=1 \
        -run 'TestServeBinarySmoke|TestServeStoreRestartSmoke|TestServeFleetSmoke|TestServeContractSmoke' \
        ./cmd/aqppp-serve
    step_done
fi

# One iteration per benchmark: catches fixture/kernel-path panics without
# turning the gate into a perf run. The output feeds benchguard so the
# recorded baselines (BENCH_*.json) are parsed and name-checked on every
# gate run (report-only: at 1x the tolerance is only there to keep the
# report short); actual regression comparison happens in CI and nightly,
# where repetitions make medians meaningful. The shard suite runs one
# sharded config.
scripts/bench.sh 1x 1 -shard-bench 'BenchmarkShardSumShuffled4$' -tolerance 10

echo "==> all checks passed"
