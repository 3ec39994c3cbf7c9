#!/usr/bin/env bash
# hive_serve and hive_bench refuse a bad report destination before they run:
#   1. an empty --out= is a usage error (exit 2, usage text);
#   2. an empty hive_serve --bug= is a usage error too, not a run with no bug;
#   3. an --out= path that cannot be opened for writing exits 1;
#   4. a value flag given twice with different values is a usage error
#      (exit 2) naming both values, not a run of the last one.
# Neither may run first: hive_serve prints its `fingerprint:` line only after
# a finished soak, and hive_bench its `hive_bench: seed=` header only once
# the report is open, before its first stage.
#
# Usage: serve_cli_test.sh <path-to-hive_serve> <path-to-hive_bench>
set -u

SERVE="${1:?usage: serve_cli_test.sh <hive_serve> <hive_bench>}"
BENCH="${2:?usage: serve_cli_test.sh <hive_serve> <hive_bench>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "serve_cli_test: FAIL: $*" >&2
  exit 1
}

# expect <status> <what to find in the output> <what shows it ran> <command...>
expect() {
  local want="$1" needle="$2" ran="$3"
  shift 3
  local status=0
  "$@" >"$TMP/run.out" 2>&1 || status=$?
  [[ "$status" -eq "$want" ]] || \
    { cat "$TMP/run.out" >&2; fail "'$*' exited $status, expected $want"; }
  grep -q -- "$needle" "$TMP/run.out" || \
    { cat "$TMP/run.out" >&2; fail "'$*' did not print '$needle'"; }
  if grep -q -- "$ran" "$TMP/run.out"; then
    cat "$TMP/run.out" >&2
    fail "'$*' ran before refusing"
  fi
}

expect 2 "usage: hive_serve" "^fingerprint:" "$SERVE" --duration-s=5 --out=
expect 2 "usage: hive_serve" "^fingerprint:" "$SERVE" --duration-s=5 --bug=
expect 1 "cannot write $TMP/no-such-dir/report.json" "^fingerprint:" \
  "$SERVE" --duration-s=5 --out="$TMP/no-such-dir/report.json"
expect 2 "given twice with different values: --seed=1 --seed=3" "^fingerprint:" \
  "$SERVE" --duration-s=5 --seed=1 --seed=3 --out="$TMP/serve.json"
expect 2 "usage: hive_bench" "^hive_bench: seed=" "$BENCH" --smoke --out=
expect 1 "cannot write $TMP/no-such-dir/bench.json" "^hive_bench: seed=" \
  "$BENCH" --smoke --out="$TMP/no-such-dir/bench.json"
expect 2 "given twice with different values: --seed=1 --seed=2" "^hive_bench: seed=" \
  "$BENCH" --smoke --seed=1 --seed=2 --out="$TMP/bench.json"

echo "serve_cli_test: OK"
