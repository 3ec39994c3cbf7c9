#!/usr/bin/env bash
# End-to-end check of the campaign repro pipeline:
#   1. a wild-write fixture sweep (firewall checking off) must flag every
#      scenario and print a self-contained repro line;
#   2. rerunning the printed repro line must reproduce the violation
#      byte-identically (same spec, same fingerprint, same report);
#   3. plan flags that conflict exit 2 instead of running, and so do
#      run-mode flags (--scenario=K, --replay-corpus, --guided) that conflict;
#   4. a sweep of zero scenarios exits 2 instead of passing over nothing;
#   5. a corpus saved by a guided run replays the scenarios it admitted;
#   6. flags the run mode never reads (among them --seed= and a plan flag
#      beside --replay-corpus, whose entries carry their own), and a value
#      flag given twice with different values, exit 2 instead of being
#      dropped;
#   7. a plain sweep of the largest --scenarios runs, batch by batch, until
#      it is stopped, instead of sizing one work list for the whole sweep.
#
# Usage: campaign_repro_test.sh <path-to-hive_campaign>
set -u

BIN="${1:?usage: campaign_repro_test.sh <hive_campaign>}"
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "campaign_repro_test: FAIL: $*" >&2
  exit 1
}

# Fixture sweep: every scenario deliberately lands a wild write, so the
# sweep must exit nonzero and report the violations.
if "$BIN" --seed=7 --scenarios=3 --workers=2 --fixture=wild_write \
    --no-minimize >"$TMP/sweep.out" 2>&1; then
  cat "$TMP/sweep.out" >&2
  fail "fixture sweep exited 0 despite landed wild writes"
fi
grep -q "3 violation(s)" "$TMP/sweep.out" || \
  { cat "$TMP/sweep.out" >&2; fail "sweep did not flag all 3 scenarios"; }
grep -q "repro: hive_campaign --seed=7" "$TMP/sweep.out" || \
  { cat "$TMP/sweep.out" >&2; fail "sweep printed no repro line"; }

# Take the first printed repro line and run it twice through the binary.
repro="$(grep -m1 -o 'hive_campaign --seed=[0-9]* --scenario=[0-9]*.*' \
  "$TMP/sweep.out")" || fail "could not extract a repro line"
read -r -a repro_args <<<"${repro#hive_campaign }"

"$BIN" "${repro_args[@]}" >"$TMP/run1.out" 2>&1
status1=$?
"$BIN" "${repro_args[@]}" >"$TMP/run2.out" 2>&1
status2=$?

[[ "$status1" -eq 1 ]] || fail "repro run exited $status1, expected 1 (violation)"
[[ "$status2" -eq 1 ]] || fail "second repro run exited $status2, expected 1"
cmp -s "$TMP/run1.out" "$TMP/run2.out" || {
  diff "$TMP/run1.out" "$TMP/run2.out" >&2 || true
  fail "repro runs were not byte-identical"
}
grep -q "containment violation" "$TMP/run1.out" || \
  { cat "$TMP/run1.out" >&2; fail "repro run did not report the violation"; }
grep -q "fingerprint=0x" "$TMP/run1.out" || \
  fail "repro run printed no fingerprint"

# A run takes one plan flag. Two different ones must be refused (exit 2,
# naming the conflict), not resolved by silently dropping one: a storm run
# would otherwise pass under a fixture that is expected to trip, and a
# violation would print a repro line for a different scenario.
for conflict in "--faults=reboot-storm --fixture=no_hop_bound" \
                "--bug=no_dedup --fixture=no_dedup" \
                "--faults=message --salvage" \
                "--salvage --bug=no_dedup"; do
  read -r -a conflict_args <<<"$conflict"
  "$BIN" --seed=3 --scenario=0 "${conflict_args[@]}" >"$TMP/conflict.out" 2>&1
  status=$?
  [[ "$status" -eq 2 ]] || \
    { cat "$TMP/conflict.out" >&2; fail "'$conflict' exited $status, expected 2"; }
  grep -q "conflicting plan flags" "$TMP/conflict.out" || \
    { cat "$TMP/conflict.out" >&2; fail "'$conflict' did not name the conflict"; }
done

# A sweep of zero scenarios is a verdict over nothing: refused, not passed.
"$BIN" --seed=1 --scenarios=0 >"$TMP/empty.out" 2>&1
status=$?
[[ "$status" -eq 2 ]] || \
  { cat "$TMP/empty.out" >&2; fail "--scenarios=0 exited $status, expected 2"; }
grep -q "scenarios=0 sweeps nothing" "$TMP/empty.out" || \
  { cat "$TMP/empty.out" >&2; fail "--scenarios=0 did not say why it was refused"; }

# A guided run saves each coverage-novel scenario (mutants included) to the
# corpus under its plan mode; replaying the corpus must rerun exactly those
# scenarios, so every replayed summary line appears verbatim in the guided
# run's output.
"$BIN" --seed=3 --scenarios=32 --workers=2 --guided --faults=message \
    --corpus="$TMP/corpus" --verbose >"$TMP/guided.out" 2>&1
status=$?
[[ "$status" -le 1 ]] || \
  { cat "$TMP/guided.out" >&2; fail "guided corpus run exited $status"; }
grep -q "^mutations=" "$TMP"/corpus/*.corpus || \
  fail "the guided run saved no mutant to replay"
"$BIN" --replay-corpus --corpus="$TMP/corpus" --workers=2 --verbose \
    >"$TMP/replay.out" 2>&1
status=$?
[[ "$status" -le 1 ]] || \
  { cat "$TMP/replay.out" >&2; fail "corpus replay exited $status"; }
replayed=0
while IFS= read -r line; do
  grep -qxF -- "$line" "$TMP/guided.out" || \
    fail "replay ran a scenario the guided run did not: $line"
  replayed=$((replayed + 1))
done < <(grep -E '^(ok|VIOLATION) ' "$TMP/replay.out")
[[ "$replayed" -gt 1 ]] || \
  { cat "$TMP/replay.out" >&2; fail "replay ran $replayed scenario(s), expected several"; }

# Run-mode flags that conflict are refused too: --scenario=K runs one
# generated scenario, so a corpus replay, a guided run or a corpus directory
# beside it would be ignored without a word.
for conflict in "--scenario=3 --replay-corpus --corpus=$TMP/corpus" \
                "--scenario=3 --guided --corpus=$TMP/unused" \
                "--replay-corpus --guided --corpus=$TMP/corpus"; do
  read -r -a conflict_args <<<"$conflict"
  "$BIN" --seed=1 "${conflict_args[@]}" >"$TMP/conflict.out" 2>&1
  status=$?
  [[ "$status" -eq 2 ]] || \
    { cat "$TMP/conflict.out" >&2; fail "'$conflict' exited $status, expected 2"; }
  grep -q "conflicting run-mode flags" "$TMP/conflict.out" || \
    { cat "$TMP/conflict.out" >&2; fail "'$conflict' did not name the conflict"; }
done
[[ ! -e "$TMP/unused" ]] || fail "a refused --scenario=K run created its --corpus= directory"

# Flags a run mode never reads are refused too, and so is a value flag given
# twice with different values: --scenario=K reads no sweep flag, a corpus
# replay runs every entry whatever the sweep size and under the entry's own
# seed and plan mode, and the second --scenario= would win without a word.
for dropped in "--seed=1 --scenario=3 --scenarios=50 --workers=8 --batch=4 --stop-on-violation --verbose|ignores these flags" \
               "--scenario=3 --scenario=5|given twice with different values" \
               "--replay-corpus --corpus=$TMP/corpus --stop-on-violation --batch=2 --scenarios=5|ignores these flags" \
               "--replay-corpus --corpus=$TMP/corpus --faults=message --seed=9|drop them): --seed=9 --faults=message"; do
  read -r -a dropped_args <<<"${dropped%%|*}"
  "$BIN" "${dropped_args[@]}" >"$TMP/dropped.out" 2>&1
  status=$?
  [[ "$status" -eq 2 ]] || \
    { cat "$TMP/dropped.out" >&2; fail "'${dropped%%|*}' exited $status, expected 2"; }
  grep -q "${dropped#*|}" "$TMP/dropped.out" || \
    { cat "$TMP/dropped.out" >&2; fail "'${dropped%%|*}' did not name the dropped flags"; }
done

# The largest sweep the flag accepts must start running, not abort while it
# sizes its work list: the timeout ends it (exit 124), with nothing thrown.
timeout 3 "$BIN" --scenarios=18446744073709551615 --workers=1 \
    >"$TMP/huge.out" 2>"$TMP/huge.err"
status=$?
[[ "$status" -eq 124 ]] || \
  { cat "$TMP/huge.err" >&2; fail "--scenarios=18446744073709551615 exited $status, expected the timeout's 124"; }
if grep -q "terminate called" "$TMP/huge.err"; then
  cat "$TMP/huge.err" >&2
  fail "--scenarios=18446744073709551615 threw"
fi

echo "campaign_repro_test: OK (repro: $repro)"
