#!/usr/bin/env bash
# reach_gate.sh — refuse a function that no smoke command entered.
#
# Reads the coverage counters that binaries built with
# `go build -cover -coverpkg=./...` wrote to GOCOVERDIR, lists the
# functions at 0% keyed as "path Func" (no line numbers, examples/ left
# out) and compares them with scripts/unreached.txt. It fails on any
# unreached function that the list does not name, and prints the listed
# functions that were reached, so that they can be dropped from the list.
#
# Usage: GOCOVERDIR=dir scripts/reach_gate.sh          # the gate
#        GOCOVERDIR=dir scripts/reach_gate.sh -list    # print the unreached set
set -euo pipefail
cd "$(dirname "$0")/.."
export LC_ALL=C
: "${GOCOVERDIR:?set GOCOVERDIR to the directory the coverage binaries wrote}"
LIST=scripts/unreached.txt

unreached() {
  go tool covdata func -i="$GOCOVERDIR" |
    awk -F'\t+' '$NF == "0.0%" { sub(/:[0-9]+:$/, "", $1); print $1, $2 }' |
    grep -v '^repro/examples/' | sort -u
}

if [ "${1:-}" = -list ]; then
  unreached
  exit
fi

got="$(unreached)"
listed="$(grep -v '^#' "$LIST" | sort -u)"
reached="$(comm -13 <(echo "$got") <(echo "$listed"))"
missing="$(comm -23 <(echo "$got") <(echo "$listed"))"
if [ -n "$reached" ]; then
  echo "listed in $LIST but reached (drop them from the list):"
  echo "$reached" | sed 's/^/  /'
fi
if [ -n "$missing" ]; then
  echo "FAIL: functions that no smoke step entered and $LIST does not list:" >&2
  echo "$missing" | sed 's/^/  /' >&2
  exit 1
fi
echo "OK: $(echo "$got" | grep -c .) functions unreached, each listed in $LIST"
