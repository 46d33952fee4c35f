#!/usr/bin/env bash
# End-to-end smoke test of the artifact store: boots cspserved with -store,
# drives /v1 endpoints, restarts it over the same directory, and checks the
# warm instance (a) reports store hits in /metrics, (b) answers with
# byte-identical payloads, and (c) survives a flipped-byte artifact by
# quarantining and recomputing. CI runs this; it also works locally (needs
# curl + jq).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:8932
BASE="http://$ADDR"
LOG="$(mktemp)"
STORE="$(mktemp -d)"
OUT="$(mktemp -d)"
BIN="$OUT/cspserved"
PID=

go build -o "$BIN" ./cmd/cspserved

start() {
  "$BIN" -addr "$ADDR" -timeout 60s -store "$STORE" >"$LOG" 2>&1 &
  PID=$!
  for i in $(seq 1 50); do
    curl -fsS "$BASE/readyz" >/dev/null 2>&1 && return
    [ "$i" = 50 ] && { echo "cspserved never became ready"; cat "$LOG"; exit 1; }
    sleep 0.1
  done
}

stop() {
  kill -TERM "$PID"
  wait "$PID"
}
trap 'kill -9 $PID 2>/dev/null || true' EXIT

# drive TAG: run the workload and write each response's payload field
# (normalised with jq -S; elapsed_ms and cache_hit legitimately vary) to
# $OUT/$TAG.*, so runs are diffable byte-for-byte.
drive() {
  local tag=$1
  jq -n --rawfile src specs/copier.csp '{source: $src, process: "copier", depth: 6}' \
    | curl -fsS "$BASE/v1/traces" -d @- | jq -S '.traces' >"$OUT/$tag.traces"
  jq -n --rawfile src specs/copier.csp '{source: $src, depth: 6}' \
    | curl -fsS "$BASE/v1/check" -d @- | jq -S '.asserts' >"$OUT/$tag.asserts"
  jq -n --rawfile src specs/copier.csp '{source: $src}' \
    | curl -fsS "$BASE/v1/prove" -d @- | jq -S '.proofs' >"$OUT/$tag.proofs"
  # The refinement artifact kind: a deliberately failing failures-model
  # verdict must round-trip the store like the passing kinds do.
  jq -n --rawfile src specs/nondet.csp \
      '{source: $src, impl: "flaky", spec: "vend", model: "failures", depth: 5}' \
    | curl -fsS "$BASE/v1/refine" -d @- | jq -S '.refine' >"$OUT/$tag.refine"
}

echo "== cold boot"
start
curl -fsS "$BASE/readyz" | jq -e '.status == "ready"' >/dev/null
drive cold
stop
ls "$STORE"/*.cspa >/dev/null || { echo "no artifacts persisted"; exit 1; }

echo "== warm restart serves byte-identical payloads off the mmap'd arenas"
start
drive warm
for field in traces asserts proofs refine; do
  diff "$OUT/cold.$field" "$OUT/warm.$field" \
    || { echo "warm $field payload differs from cold"; exit 1; }
done
# The warm responses must have come through the frozen tier: store hits
# loaded off the mapped files, arenas opened and resident (arena_bytes),
# and the trace listings answered from frozen views without a thaw (hits).
curl -fsS "$BASE/metrics" | jq -e '
  .ready == true and
  .module_cache.store_hits >= 1 and
  .module_cache.store_bytes_read >= 1 and
  .frozen.arenas_opened >= 1 and
  .frozen.arena_bytes >= 1 and
  .frozen.hits >= 1' >/dev/null
stop

echo "== flipped-byte artifact is quarantined and recomputed"
for f in "$STORE"/*.cspa; do
  printf '\377' | dd of="$f" bs=1 seek=100 conv=notrunc 2>/dev/null
done
start
grep -q "quarantined" "$LOG"
drive corrupt
for field in traces asserts proofs refine; do
  diff "$OUT/cold.$field" "$OUT/corrupt.$field" \
    || { echo "recomputed $field payload differs from cold"; exit 1; }
done
curl -fsS "$BASE/metrics" | jq -e '.module_cache.store_corrupt >= 1' >/dev/null
ls "$STORE"/*.corrupt >/dev/null || { echo "corrupt artifact not quarantined"; exit 1; }
stop

echo "== cspstore operates the directory"
go build -o "$OUT/cspstore" ./cmd/cspstore
"$OUT/cspstore" -store "$STORE" ls | grep -q "arena" || { echo "ls shows no arena sizes"; exit 1; }
"$OUT/cspstore" -store "$STORE" verify
"$OUT/cspstore" -store "$STORE" -thaw verify
"$OUT/cspstore" -store "$STORE" gc | grep -q "removed"
if ls "$STORE"/*.corrupt >/dev/null 2>&1; then
  echo "gc left quarantined files behind"; exit 1
fi

echo "store smoke: all good"
