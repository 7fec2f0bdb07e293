#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go caches, traces and the ingest workload's disk
# directories all live under $CARGO_TARGET_DIR (default .bench_build), so
# the run reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/home" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export HOME="$out/home" XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/home"
export GOTOOLCHAIN=local GOENV=off GOFLAGS=-mod=readonly
if ! command -v go >/dev/null 2>&1; then
	PATH=$PATH:/usr/local/go/bin
fi
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out/work" "$@"
