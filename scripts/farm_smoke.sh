#!/usr/bin/env bash
# farm_smoke.sh — end-to-end farm transport smoke test.
#
# Boots the twelve-agent Fig. 7 grid as live TCP daemons (gridfarm) with
# connection pooling, admission control, and the binary codec enabled,
# pushes a gridsubmit batch through the portal over pooled multiplexed
# connections, then polls every node's results and asserts that no
# submitted task was lost: every request in the batch is accounted for
# by exactly the ack count, and the per-node results sum matches.
#
# Usage: scripts/farm_smoke.sh [count]
#
# GRID_BIN, when set, names a directory holding gridfarm and gridsubmit
# binaries to run instead of building them (CI passes its coverage
# build).
set -euo pipefail
cd "$(dirname "$0")/.."

COUNT="${1:-40}"
BASE=7400
NODES=12
EMAIL="smoke@farm"
TMP="$(mktemp -d)"
FARM_PID=""
cleanup() {
  [ -n "$FARM_PID" ] && kill "$FARM_PID" 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

BIN="${GRID_BIN:-$TMP}"
if [ -z "${GRID_BIN:-}" ]; then
  echo "== build"
  go build -o "$TMP/gridfarm" ./cmd/gridfarm
  go build -o "$TMP/gridsubmit" ./cmd/gridsubmit
fi

echo "== boot farm (pooled, admission-gated, binary codec allowed)"
"$BIN/gridfarm" -base "$BASE" -metrics "" \
  -pool-size 4 -window 128 -admission 64 -binary \
  >"$TMP/farm.log" 2>&1 &
FARM_PID=$!

SUBMIT="127.0.0.1:$((BASE + NODES - 1))" # S12, the portal's entry node
for i in $(seq 1 60); do
  if "$BIN/gridsubmit" -to "$SUBMIT" -query >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "$FARM_PID" 2>/dev/null; then
    echo "farm died during startup:" >&2
    cat "$TMP/farm.log" >&2
    exit 1
  fi
  [ "$i" -eq 60 ] && { echo "farm never became ready" >&2; cat "$TMP/farm.log" >&2; exit 1; }
  sleep 0.5
done

echo "== submit batch of $COUNT through $SUBMIT (pooled + binary wire codec)"
"$BIN/gridsubmit" -to "$SUBMIT" -email "$EMAIL" \
  -count "$COUNT" -interval 5ms -wire-binary | tee "$TMP/batch.log"
grep -q "batch complete: $COUNT requests" "$TMP/batch.log" || {
  echo "FAIL: batch did not complete all $COUNT requests" >&2
  exit 1
}

echo "== collect results from every node"
TOTAL=0
for i in $(seq 0 $((NODES - 1))); do
  ADDR="127.0.0.1:$((BASE + i))"
  "$BIN/gridsubmit" -to "$ADDR" -results -email "$EMAIL" >"$TMP/results.$i" 2>&1
  N=$(grep -c '^task ' "$TMP/results.$i" || true)
  TOTAL=$((TOTAL + N))
  [ "$N" -gt 0 ] && echo "  $ADDR holds $N task(s)"
done

echo "== verdict: $TOTAL/$COUNT tasks accounted for"
if [ "$TOTAL" -ne "$COUNT" ]; then
  echo "FAIL: submitted $COUNT tasks but the farm accounts for $TOTAL" >&2
  exit 1
fi
echo "OK: zero lost tasks"
