#!/bin/sh
# bench_json.sh — emit the headline benchmark trajectory as machine-readable
# JSON (the BENCH_PR13.json format): ns/op, B/op, allocs/op for the serial
# pipeline, the batched server resolve path (monolithic plus the 4- and
# 16-shard scatter-gather sweep) and the out-of-core read path (cold and
# warm page cache), plus p50/p99 request latency under concurrent load —
# for both the synchronous resolve path and the budget-aware interactive
# streaming mode (resolve_budget_interactive, with comparisons/ms).
#
# Usage:
#   sh scripts/bench_json.sh [out.json]
#
# With no argument the JSON goes to stdout. To refresh the committed
# trajectory after an intentional performance change:
#   sh scripts/bench_json.sh fresh.json
#   # inspect fresh.json, then fold its numbers into BENCH_PR13.json's
#   # "benchmarks" section (keep "baseline" as the historical record).
set -eu

cd "$(dirname "$0")/.."

if [ "$#" -ge 1 ]; then
    exec go run ./cmd/benchjson emit -o "$1"
fi
exec go run ./cmd/benchjson emit
