#!/usr/bin/env bash
# Builds cspbench from source and runs it, passing every
# argument through (see bench/README.md):
#
#   bash bench/run.sh --workload hot-mix --seed 1 --seconds 15 --trace 0
#
# The build, Go's caches, and the temporary files of a run (the server's
# journal and store) stay inside the checkout, under $CARGO_TARGET_DIR when
# it is set and .bench_build otherwise. Nothing is downloaded: the module's
# only dependency is the repository itself, by a local replace.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/cache" "$build/tmp" "$build/home"

export GOCACHE="$build/cache/go-build" GOMODCACHE="$build/cache/mod" GOPATH="$build/cache/gopath"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
# store-spill keeps its stores between runs (see internal/run/stores.go).
export CSPBENCH_STORES="$build/tmp/cspbench-stores"

go -C "$root/bench" build -o "$build/cspbench" ./cmd/cspbench
exec "$build/cspbench" -root "$root" "$@"
