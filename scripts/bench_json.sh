#!/bin/sh
# bench_json.sh — run the experiment benchmarks (E01–E21) with -benchmem
# and write the results as BENCH_<date>.json in the repo root, one object
# per benchmark with ns/op, B/op, allocs/op, and any custom metrics the
# benchmark reported (memo-hit-rate, interned-nodes, ...). The header
# records the git commit, the Go toolchain version, and GOMAXPROCS so
# snapshots from different commits, toolchains, or core counts are never
# compared blindly.
#
# Usage: scripts/bench_json.sh [--allow-dirty] [extra go test args...]
#   --allow-dirty     permit running with uncommitted changes; the commit
#                     is stamped "<sha>-dirty". Without it a dirty tree is
#                     a hard error: a snapshot stamped with a commit whose
#                     tree was never the one measured is worse than no
#                     snapshot (BENCH_2026-08-08.json got that way once).
#   BENCH_OUT=path    override the output file
#   BENCH_PATTERN=re  override the benchmark regex (default: every
#                     numbered experiment benchmark, E01 through E21)
#   BENCH_TIME=d      override -benchtime (default 1s)
#   BENCH_GOGC=n      override GOGC for the run (default 400: snapshots
#                     measure engine compute, not collector bookkeeping —
#                     on a host with fewer cores than GOMAXPROCS the
#                     collector's per-P overhead would otherwise dominate
#                     the high-proc scaling rows; the value is recorded in
#                     the JSON header)
#
# The JSON is a snapshot for EXPERIMENTS.md and the CI artifact, not a
# benchstat replacement: re-run on the same machine before comparing.
set -eu

cd "$(dirname "$0")/.."

allow_dirty=0
if [ "${1:-}" = "--allow-dirty" ]; then
	allow_dirty=1
	shift
fi

pattern="${BENCH_PATTERN:-^BenchmarkE[0-9]+}"
benchtime="${BENCH_TIME:-1s}"
gogc="${BENCH_GOGC:-400}"
out="${BENCH_OUT:-BENCH_$(date +%Y-%m-%d).json}"
commit="$(git rev-parse HEAD 2>/dev/null || echo unknown)"
if ! git diff --quiet HEAD 2>/dev/null; then
	if [ "$allow_dirty" -ne 1 ]; then
		echo "bench_json.sh: working tree is dirty; commit first or pass --allow-dirty" >&2
		exit 1
	fi
	commit="$commit-dirty"
fi
maxprocs="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc)}"
gover="$(go env GOVERSION 2>/dev/null || echo unknown)"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

# A full 1s-benchtime sweep (plus the untimed per-iteration GC the
# scaling benchmarks do) can outlast go test's default 10m timeout, and
# POSIX sh has no pipefail — run to a file and fail hard before writing
# any JSON, so a broken run can never produce a header-only snapshot.
if ! GOGC="$gogc" go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" \
	-timeout 45m "$@" . > "$tmp" 2>&1; then
	cat "$tmp"
	echo "bench_json.sh: go test failed; no JSON written" >&2
	exit 1
fi
cat "$tmp"

awk -v date="$(date +%Y-%m-%dT%H:%M:%S%z)" -v commit="$commit" -v maxprocs="$maxprocs" -v gogc="$gogc" -v gover="$gover" '
BEGIN { n = 0 }
/^goos: /   { goos = $2 }
/^goarch: / { goarch = $2 }
/^cpu: /    { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)   # strip the GOMAXPROCS suffix
    iters = $2
    extra = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/[^A-Za-z0-9_.-]/, "_", unit)
        extra = extra sprintf(",\"%s\":%s", unit, $i)
    }
    rows[n++] = sprintf("  {\"name\":\"%s\",\"iterations\":%s%s}", name, iters, extra)
}
END {
    printf "{\n"
    printf "  \"date\": \"%s\",\n", date
    printf "  \"commit\": \"%s\",\n", commit
    printf "  \"go\": \"%s\",\n", gover
    printf "  \"gomaxprocs\": %s,\n", maxprocs
    printf "  \"gogc\": %s,\n", gogc
    printf "  \"goos\": \"%s\", \"goarch\": \"%s\",\n", goos, goarch
    printf "  \"cpu\": \"%s\",\n", cpu
    printf "  \"benchmarks\": [\n"
    for (i = 0; i < n; i++) printf "  %s%s\n", rows[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}' "$tmp" > "$out"

echo "wrote $out" >&2
