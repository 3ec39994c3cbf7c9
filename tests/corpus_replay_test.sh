#!/bin/sh
# Corpus regression replay: every checked-in corpus entry must regenerate and
# replay clean, and the merged campaign output (coverage map, merged
# fingerprint, violation count) must be byte-identical for 1 and 4 workers.
#
# Usage: corpus_replay_test.sh <hive_campaign-binary> <corpus-dir>
set -eu

CAMPAIGN="$1"
CORPUS="$2"

fail() {
  echo "corpus_replay_test: $1" >&2
  exit 1
}

[ -x "$CAMPAIGN" ] || fail "campaign binary '$CAMPAIGN' not executable"
[ -d "$CORPUS" ] || fail "corpus dir '$CORPUS' missing"

entries=$(ls "$CORPUS"/*.corpus 2>/dev/null | wc -l)
[ "$entries" -gt 0 ] || fail "corpus dir '$CORPUS' has no *.corpus entries"

out1=$(mktemp)
out4=$(mktemp)
trap 'rm -f "$out1" "$out4"' EXIT

"$CAMPAIGN" --corpus="$CORPUS" --replay-corpus --workers=1 > "$out1" 2>&1 \
  || fail "1-worker replay exited non-zero (a checked-in entry regressed):
$(cat "$out1")"
"$CAMPAIGN" --corpus="$CORPUS" --replay-corpus --workers=4 > "$out4" 2>&1 \
  || fail "4-worker replay exited non-zero:
$(cat "$out4")"

grep -q "ran $entries scenarios" "$out1" \
  || fail "expected to replay all $entries entries:
$(cat "$out1")"
grep -q "0 violation(s)" "$out1" \
  || fail "replay reported violations:
$(cat "$out1")"
grep -q "($entries loaded)" "$out1" \
  || fail "expected '($entries loaded)' in the corpus line:
$(cat "$out1")"
grep -q "merged-fingerprint=0x" "$out1" \
  || fail "missing merged-fingerprint line:
$(cat "$out1")"

# Worker-count independence of the merged output (only the workers= echo in
# the header may differ).
if ! diff "$(printf %s "$out1")" "$(printf %s "$out4")" >/dev/null 2>&1; then
  sed 's/workers=[0-9]*/workers=N/' "$out1" > "$out1.norm"
  sed 's/workers=[0-9]*/workers=N/' "$out4" > "$out4.norm"
  trap 'rm -f "$out1" "$out4" "$out1.norm" "$out4.norm"' EXIT
  diff "$out1.norm" "$out4.norm" \
    || fail "1-worker and 4-worker replay outputs differ beyond workers="
fi

# Replay must not pass vacuously: a missing directory, or one with no
# *.corpus entries, is a usage error (exit 2), not "all oracles passed".
empty=$(mktemp -d)
trap 'rm -rf "$out1" "$out4" "$out1.norm" "$out4.norm" "$empty"' EXIT
for dir in "$empty/nonexistent" "$empty"; do
  status=0
  "$CAMPAIGN" --corpus="$dir" --replay-corpus > "$out1" 2>&1 || status=$?
  [ "$status" -eq 2 ] || fail "replay of '$dir' exited $status (want 2):
$(cat "$out1")"
done

echo "corpus_replay_test: OK ($entries entries, worker-count independent)"
