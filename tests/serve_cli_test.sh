#!/usr/bin/env bash
# hive_serve refuses a bad report destination before it runs the soak:
#   1. an empty --out= is a usage error (exit 2, usage text);
#   2. an empty --bug= is a usage error too, not a run with no bug;
#   3. an --out= path that cannot be opened for writing exits 1.
# Only a finished soak prints its `fingerprint:` line, so none of these may
# print one.
#
# Usage: serve_cli_test.sh <path-to-hive_serve>
set -u

BIN="${1:?usage: serve_cli_test.sh <hive_serve>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "serve_cli_test: FAIL: $*" >&2
  exit 1
}

# expect <status> <what to find in the output> <flags...>
expect() {
  local want="$1" needle="$2"
  shift 2
  local status=0
  "$BIN" --duration-s=5 "$@" >"$TMP/run.out" 2>&1 || status=$?
  [[ "$status" -eq "$want" ]] || \
    { cat "$TMP/run.out" >&2; fail "'$*' exited $status, expected $want"; }
  grep -q -- "$needle" "$TMP/run.out" || \
    { cat "$TMP/run.out" >&2; fail "'$*' did not print '$needle'"; }
  if grep -q "^fingerprint:" "$TMP/run.out"; then
    cat "$TMP/run.out" >&2
    fail "'$*' ran the soak before refusing"
  fi
}

expect 2 "usage: hive_serve" --out=
expect 2 "usage: hive_serve" --bug=
expect 1 "cannot write $TMP/no-such-dir/report.json" --out="$TMP/no-such-dir/report.json"

echo "serve_cli_test: OK"
