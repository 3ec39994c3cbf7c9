#!/usr/bin/env bash
# Repository check driver:
#   1. hive_lint passes clean on the shipped tree, its --format=json report
#      diffs empty against ci/lint_baseline.json (fail on new diagnostics,
#      warn on stale baseline entries), and the full-tree run stays under
#      the 5-second budget;
#   2. hive_lint flags every seeded violation in tests/lint_fixtures
#      (including the R0 bad-suppression and stale-marker cases, R10 and the
#      unsuppressible R3 and R12) and honours the one properly suppressed
#      site; the checks the compiler makes instead
#      (HIVE_ERROR_FLAGS in the root CMakeLists.txt) are the compile_checks
#      ctest's, run with the suite in the primary build and in the ASan
#      build of step 5;
#   2b. when clang-tidy is installed, the pinned .clang-tidy profile
#      (bugprone-* + concurrency-*) runs clean over src/base/ using the
#      compile_commands.json exported by the primary build;
#   3. a message-fault campaign sweep (loss+duplication+reordering) passes
#      every transport oracle, and the no_dedup fixture demonstrably trips
#      the rpc-at-most-once oracle (the oracle can fail, not just pass);
#   4. a rogue-cell sweep (live Byzantine cells) passes every
#      Byzantine-survivor oracle, the zero-fault baseline sees zero
#      excisions, and the no_hop_bound fixture demonstrably trips the
#      no-survivor-hang oracle;
#   4b. a 200-scenario reboot-storm sweep (rotating kill/rejoin with page
#      salvage + live rejoin) passes every oracle worker-count-independently,
#      a salvage sweep adopts at least one page with zero violations, and
#      the salvage_unchecked fixture demonstrably trips the
#      no-corrupt-adoption oracle with byte-identical repro output;
#   4c. hive_bench --smoke emits JSON that validates against schema
#       hive-bench-v3; the hive_serve soak smoke meets every SLO, its
#       BENCH_serve.json validates against schema hive-serve-v1, and both
#       seeded --bug modes demonstrably trip an SLO oracle (exit 3);
#   4d. the pinned determinism fingerprints hold: hive_campaign merged
#       fingerprints for seeds 1-3 at 600 scenarios, the hive_serve
#       fingerprints of the default, the 8-cell/32-tenant and the
#       16-cell/64-tenant soak, and the stdout sha256 of each of the 14
#       table benches in bench/ (each must also exit 0; gb_microbench is
#       host-timed and left out); every pinned soak keeps one Wax scan chain
#       per incarnation (scan count bounded by the run length plus the
#       incarnations);
#   4e. a 20000-scenario campaign sweep (seed 2) reaches a verdict with no
#       violation: the uncaught-bus-error crash family stays closed;
#   4f. a one-worker 3000-scenario campaign (seed 1) takes at most 30,000
#       minor page faults: simulated memory comes from pooled host pages, not
#       from a fresh kernel mapping per scenario (skipped, with a notice,
#       when python3 is missing);
#   4g. the committed BENCH files are not stale: the default soak's JSON from
#       4d equals BENCH_serve.json in every field but peak_rss_bytes, and a
#       hive_bench run at its defaults equals BENCH_sim.json in schema, mode,
#       seed, workers, each stage's scenarios and sim_events, and every
#       subsystem's ops; a mismatch names the field (skipped, with a
#       notice, when python3 is missing);
#   5. the full test suite builds and passes under ASan+UBSan, the four
#      examples run clean under ASan+UBSan (exit 0, no sanitizer report),
#      and an ASan+UBSan hive_serve runs to a verdict (exit 0 or 3, never a
#      signal or a sanitizer report) at every --seed {1..6} x --cells
#      {4,8,16} x --tenants {8,32,64} soak, each the full 60 s;
#   6. the campaign thread pool -- including the RPC retry/quarantine state
#      it exercises -- builds and runs clean under TSan;
#   7. optionally, a nightly-scale campaign sweep (HIVE_CAMPAIGN_SCENARIOS).
#
# Usage: ci/run_checks.sh [primary-build-dir]
# Also registered as the `run_checks` ctest entry (see tests/CMakeLists.txt),
# which passes the primary build dir and sets HIVE_SOURCE_DIR.
#
# Environment:
#   HIVE_CAMPAIGN_SCENARIOS  when set to a positive integer, additionally run
#                            a nightly-scale fault campaign of that many
#                            scenarios with the primary-build hive_campaign
#                            (e.g. HIVE_CAMPAIGN_SCENARIOS=2000 for nightly CI).
#   HIVE_CAMPAIGN_SEED       master seed for the nightly sweep (default 1).
#   HIVE_TEST_SEED           master seed for the message-fault sweep and the
#                            no_dedup fixture check (default 1).
set -euo pipefail

BUILD_DIR="${1:-build}"
SOURCE_DIR="${HIVE_SOURCE_DIR:-$(cd "$(dirname "$0")/.." && pwd)}"
LINT="$BUILD_DIR/tools/hive_lint/hive_lint"
JOBS="$(nproc 2>/dev/null || echo 4)"

fail() {
  echo "run_checks: FAIL: $*" >&2
  exit 1
}

[[ -x "$LINT" ]] || fail "hive_lint not built at $LINT (build the primary tree first)"

echo "== hive_lint: shipped tree must be clean =="
"$LINT" --root "$SOURCE_DIR" || fail "hive_lint found violations in the shipped tree"

echo "== hive_lint: JSON report vs ci/lint_baseline.json =="
lint_json="$BUILD_DIR/lint_report.json"
lint_status=0
"$LINT" --root "$SOURCE_DIR" --format=json >"$lint_json" || lint_status=$?
[[ "$lint_status" -le 1 ]] || fail "hive_lint --format=json errored (exit $lint_status)"
grep -q '"schema": "hive-lint-v2"' "$lint_json" || \
  fail "lint report is not schema hive-lint-v2"
BASELINE="$SOURCE_DIR/ci/lint_baseline.json"
diag_keys() {
  # Prints file:line:rule per diagnostic; jq when present, python3 otherwise.
  if command -v jq >/dev/null 2>&1; then
    jq -r '.diagnostics[] | "\(.file):\(.line):\(.rule)"' "$1"
  else
    python3 - "$1" <<'PYEOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
for d in doc["diagnostics"]:
    print(f"{d['file']}:{d['line']}:{d['rule']}")
PYEOF
  fi
}
new_diags="$(comm -23 <(diag_keys "$lint_json" | sort) \
                      <(diag_keys "$BASELINE" | sort))"
stale_baseline="$(comm -13 <(diag_keys "$lint_json" | sort) \
                           <(diag_keys "$BASELINE" | sort))"
if [[ -n "$new_diags" ]]; then
  echo "$new_diags"
  fail "hive_lint diagnostics not present in ci/lint_baseline.json (fix or add a justified suppression)"
fi
if [[ -n "$stale_baseline" ]]; then
  echo "run_checks: WARN: stale ci/lint_baseline.json entries (no longer reported):"
  echo "$stale_baseline"
fi

echo "== hive_lint: full-tree run must stay under the 5s budget =="
if command -v jq >/dev/null 2>&1; then
  total_ms="$(jq '.stats.total_ms' "$lint_json")"
else
  total_ms="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["stats"]["total_ms"])' "$lint_json")"
fi
awk -v ms="$total_ms" 'BEGIN { exit !(ms + 0 < 5000) }' || \
  fail "hive_lint full-tree run took ${total_ms} ms (budget: 5000 ms)"
echo "hive_lint full-tree run: ${total_ms} ms"

echo "== hive_lint: seeded fixtures must be flagged =="
fixture_out="$("$LINT" --root "$SOURCE_DIR/tests/lint_fixtures" 2>&1)" && \
  fail "hive_lint exited 0 on the seeded fixture tree"
echo "$fixture_out"
for rule in R0 R1 R2 R3 R7 R10 R12; do
  grep -q "\[$rule\]" <<<"$fixture_out" || fail "fixture scan did not report $rule"
done
# Good twins of R10 and R12 must be completely silent.
for good in good_nondeterminism.cc good_bus_panic.cc; do
  grep -q "/$good:" <<<"$fixture_out" && \
    fail "hive_lint reported diagnostics in good twin $good"
done
# The properly suppressed site (bad_direct_access.cc line 19) must be absent.
grep -q "bad_direct_access.cc:19" <<<"$fixture_out" && \
  fail "hive_lint reported the properly suppressed fixture line"

echo "== clang-tidy smoke: pinned profile over src/base/ =="
# Uses the compile_commands.json exported by the primary build and the
# checked-in .clang-tidy (bugprone-* + concurrency-*). The container used in
# CI may not ship clang-tidy; warn-skip rather than fail so the lane degrades
# gracefully -- the repo-specific rules above have no such dependency.
if command -v clang-tidy >/dev/null 2>&1; then
  [[ -f "$BUILD_DIR/compile_commands.json" ]] || \
    fail "compile_commands.json missing from $BUILD_DIR (CMAKE_EXPORT_COMPILE_COMMANDS should be ON)"
  clang-tidy -p "$BUILD_DIR" --quiet "$SOURCE_DIR"/src/base/*.cc || \
    fail "clang-tidy reported warnings-as-errors in src/base/"
else
  echo "run_checks: WARN: clang-tidy not installed; skipping the src/base/ smoke"
fi

echo "== message-fault campaign: loss+duplication+reordering sweep =="
CAMPAIGN="$BUILD_DIR/tools/hive_campaign/hive_campaign"
[[ -x "$CAMPAIGN" ]] || fail "hive_campaign not built at $CAMPAIGN"
MSG_SEED="${HIVE_TEST_SEED:-1}"
"$CAMPAIGN" --seed="$MSG_SEED" --scenarios=40 --workers="$JOBS" --faults=message || \
  fail "message-fault sweep reported transport-oracle violations"

echo "== no_dedup fixture: at-most-once oracle must trip =="
# With duplicate suppression disabled, duplicated mutating RPCs re-execute;
# the sweep must fail AND name the rpc-at-most-once oracle. This proves the
# oracle detects real violations rather than passing vacuously.
nodedup_log="$BUILD_DIR/no_dedup_fixture.log"
if "$CAMPAIGN" --seed="$MSG_SEED" --scenarios=10 --workers="$JOBS" \
     --fixture=no_dedup >"$nodedup_log" 2>&1; then
  cat "$nodedup_log"
  fail "no_dedup fixture sweep passed; the at-most-once oracle never tripped"
fi
grep -q "rpc-at-most-once" "$nodedup_log" || {
  cat "$nodedup_log"
  fail "no_dedup fixture failed without an rpc-at-most-once diagnostic"
}

echo "== rogue-cell campaign: Byzantine-survivor sweep =="
# Live Byzantine cells (frozen/drifting clocks, heap scribbles, babbling,
# garbage replies, silence, contrarian votes, false accusations): survivors
# must detect and excise every rogue, hang nowhere, and excise nobody else.
"$CAMPAIGN" --seed="$MSG_SEED" --scenarios=40 --workers="$JOBS" --faults=rogue || \
  fail "rogue-cell sweep reported Byzantine-survivor oracle violations"

echo "== healthy baseline: zero-fault sweep must see zero excisions =="
# Same 4-cell voting geometry with no fault plan: the detection machinery's
# sensitivity check. Any excision here is a false positive.
baseline_log="$BUILD_DIR/healthy_baseline.log"
"$CAMPAIGN" --seed="$MSG_SEED" --scenarios=20 --workers="$JOBS" \
  --faults=none >"$baseline_log" 2>&1 || {
  cat "$baseline_log"
  fail "healthy-baseline sweep reported oracle violations"
}
grep -q " 0 excision(s)," "$baseline_log" || {
  cat "$baseline_log"
  fail "healthy-baseline sweep excised a cell with no fault injected"
}

echo "== no_hop_bound fixture: no-survivor-hang oracle must trip =="
# With the survivors' chain-chase hop bound removed, a rogue cyclic chain
# makes the prober walk thousands of hops; the sweep must fail AND name the
# no-survivor-hang oracle. This proves the oracle detects real hangs rather
# than passing vacuously.
nohop_log="$BUILD_DIR/no_hop_bound_fixture.log"
if "$CAMPAIGN" --seed="$MSG_SEED" --scenarios=10 --workers="$JOBS" \
     --fixture=no_hop_bound >"$nohop_log" 2>&1; then
  cat "$nohop_log"
  fail "no_hop_bound fixture sweep passed; the no-survivor-hang oracle never tripped"
fi
grep -q "no-survivor-hang" "$nohop_log" || {
  cat "$nohop_log"
  fail "no_hop_bound fixture failed without a no-survivor-hang diagnostic"
}

echo "== reboot-storm campaign: rotating kill/rejoin sweep =="
# Salvage + live rejoin under rotating kill/rejoin cycles (some kills land
# inside a prior victim's warm-rejoin window). Every oracle must pass, and
# the merged fingerprint must be independent of worker count.
storm_log="$BUILD_DIR/storm_sweep.log"
"$CAMPAIGN" --seed="$MSG_SEED" --scenarios=200 --workers="$JOBS" \
  --faults=reboot-storm >"$storm_log" 2>&1 || {
  cat "$storm_log"
  fail "reboot-storm sweep reported salvage/reintegration oracle violations"
}
storm_log1="$BUILD_DIR/storm_sweep_w1.log"
"$CAMPAIGN" --seed="$MSG_SEED" --scenarios=200 --workers=1 \
  --faults=reboot-storm >"$storm_log1" 2>&1 || {
  cat "$storm_log1"
  fail "1-worker reboot-storm sweep reported oracle violations"
}
storm_fp="$(grep -o 'merged-fingerprint=0x[0-9a-f]*' "$storm_log")"
storm_fp1="$(grep -o 'merged-fingerprint=0x[0-9a-f]*' "$storm_log1")"
[[ -n "$storm_fp" && "$storm_fp" == "$storm_fp1" ]] || \
  fail "reboot-storm merged fingerprint differs across worker counts ($storm_fp vs $storm_fp1)"

echo "== salvage campaign: adoption must happen and stay clean =="
# Node-failure sweep with page salvage enabled: at least one page must be
# adopted by proof (the path is exercised, not vacuous) with zero violations
# (notably zero no-corrupt-adoption trips).
salvage_log="$BUILD_DIR/salvage_sweep.log"
"$CAMPAIGN" --seed="$MSG_SEED" --scenarios=30 --workers="$JOBS" \
  --salvage >"$salvage_log" 2>&1 || {
  cat "$salvage_log"
  fail "salvage sweep reported oracle violations"
}
salvaged="$(grep -o '[0-9]* page(s) salvaged' "$salvage_log" | grep -o '^[0-9]*')"
[[ -n "$salvaged" && "$salvaged" -gt 0 ]] || {
  cat "$salvage_log"
  fail "salvage sweep adopted zero pages; the salvage path never fired"
}

echo "== salvage_unchecked fixture: blind adoption must trip =="
# With the salvage proofs disabled (and the firewall down so the wild write
# lands), recovery adopts a scribbled page; the sweep must fail AND name the
# no-corrupt-adoption oracle, and the repro output must be byte-identical
# across runs.
unchecked_log="$BUILD_DIR/salvage_unchecked.log"
if "$CAMPAIGN" --seed="$MSG_SEED" --scenarios=10 --workers="$JOBS" \
     --bug=salvage_unchecked >"$unchecked_log" 2>&1; then
  cat "$unchecked_log"
  fail "salvage_unchecked sweep passed; the no-corrupt-adoption oracle never tripped"
fi
grep -q "no-corrupt-adoption" "$unchecked_log" || {
  cat "$unchecked_log"
  fail "salvage_unchecked failure does not name the no-corrupt-adoption oracle"
}
unchecked_log2="$BUILD_DIR/salvage_unchecked2.log"
"$CAMPAIGN" --seed="$MSG_SEED" --scenarios=10 --workers="$JOBS" \
  --bug=salvage_unchecked >"$unchecked_log2" 2>&1 || true
diff "$unchecked_log" "$unchecked_log2" >/dev/null || \
  fail "salvage_unchecked repro output is not byte-identical across runs"

echo "== guided campaign: budgeted coverage-guided run =="
# A coverage-guided sweep over healthy code must still pass every oracle, and
# must actually exercise the corpus/mutation machinery (corpus line present).
# HIVE_CAMPAIGN_SCENARIOS scales the budget for nightly lanes.
GUIDED_SCENARIOS="${HIVE_CAMPAIGN_SCENARIOS:-64}"
# A zero-scenario sweep is a usage error (exit 2); 0 turns the nightly lane
# off, not this budget.
[[ "$GUIDED_SCENARIOS" -gt 0 ]] || GUIDED_SCENARIOS=64
guided_log="$BUILD_DIR/guided_campaign.log"
rm -rf "$BUILD_DIR/ci_corpus"
"$CAMPAIGN" --seed="$MSG_SEED" --scenarios="$GUIDED_SCENARIOS" \
  --workers="$JOBS" --guided --corpus="$BUILD_DIR/ci_corpus" \
  >"$guided_log" 2>&1 || {
  cat "$guided_log"
  fail "guided campaign sweep reported containment violations"
}
grep -q "^corpus: " "$guided_log" || {
  cat "$guided_log"
  fail "guided sweep did not report a corpus (mutation machinery inactive?)"
}
grep -q "^draws: " "$guided_log" || {
  cat "$guided_log"
  fail "guided sweep did not report its fresh/mutant draw mix"
}

echo "== guided vs random: seeded-bug discovery cost =="
# The coverage-guided loop must *earn* its complexity: with duplicate
# suppression silently broken on one cell (--bug=no_dedup) and every
# duplicate-delivery channel thinned to trace levels, the guided mode must
# rediscover the bug in strictly fewer scenarios (median discovery cost over
# 10 master seeds) than the random sweep. Budget 160 scenarios; a run that
# never trips scores budget+1.
BUG_BUDGET=160
discovery_cost() {
  # $1 = extra flags; prints one cost per seed. The campaign exits non-zero
  # when it finds the bug, so capture first and grep after.
  local bug_seed out cost
  for bug_seed in 1 2 3 4 5 6 7 8 9 10; do
    # shellcheck disable=SC2086
    out="$("$CAMPAIGN" --seed="$bug_seed" --scenarios="$BUG_BUDGET" \
        --workers="$JOBS" --bug=no_dedup --stop-on-violation --no-minimize \
        $1 2>&1 || true)"
    cost="$(grep -o 'first violation at scenario [0-9]*' <<<"$out" | \
            grep -o '[0-9]*$' || true)"
    echo "${cost:-$((BUG_BUDGET + 1))}"
  done
}
median() {
  sort -n | awk '{ v[NR] = $1 } END {
    if (NR % 2) { print v[(NR + 1) / 2] }
    else { print int((v[NR / 2] + v[NR / 2 + 1]) / 2) }
  }'
}
random_costs="$(discovery_cost "")"
guided_costs="$(discovery_cost "--guided --batch=16")"
random_median="$(median <<<"$random_costs")"
guided_median="$(median <<<"$guided_costs")"
echo "random discovery costs: $(tr '\n' ' ' <<<"$random_costs")(median $random_median)"
echo "guided discovery costs: $(tr '\n' ' ' <<<"$guided_costs")(median $guided_median)"
[[ "$guided_median" -lt "$random_median" ]] || \
  fail "guided median discovery cost ($guided_median) is not below random ($random_median)"

# The discovered bug must be the planted one: a guided bug run's failure
# report names the rpc-at-most-once oracle.
bug_log="$BUILD_DIR/guided_bug.log"
if "$CAMPAIGN" --seed=1 --scenarios="$BUG_BUDGET" --workers="$JOBS" \
     --bug=no_dedup --stop-on-violation --guided --batch=16 \
     >"$bug_log" 2>&1; then
  cat "$bug_log"
  fail "guided --bug=no_dedup run passed; the seeded bug was never exposed"
fi
grep -q "rpc-at-most-once" "$bug_log" || {
  cat "$bug_log"
  fail "guided --bug=no_dedup failure does not name the rpc-at-most-once oracle"
}

echo "== hive_bench smoke: throughput harness emits valid JSON =="
BENCH="$BUILD_DIR/tools/hive_bench/hive_bench"
[[ -x "$BENCH" ]] || fail "hive_bench not built at $BENCH"
bench_json="$BUILD_DIR/bench_smoke.json"
"$BENCH" --smoke --out="$bench_json" || fail "hive_bench --smoke exited nonzero"
[[ -s "$bench_json" ]] || fail "hive_bench --smoke wrote no JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$bench_json" <<'PYEOF' || fail "hive_bench JSON failed schema validation"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "hive-bench-v3", doc.get("schema")
# v2 dropped the top-level mirrors of per-stage rates and v3 the
# parallel_sim stage. Each stage owns its numbers and the only top-level
# metric left is peak RSS.
for dropped in ("events_per_sec", "ns_per_event", "scenarios_per_sec",
                "parallel_sim"):
    assert dropped not in doc, f"dropped key {dropped} resurfaced at top level"
assert isinstance(doc["peak_rss_bytes"], int) and doc["peak_rss_bytes"] > 0
assert doc["event_queue"]["schedule_run"]["events_per_sec"] > 0
assert doc["event_queue"]["cancel_churn"]["ops_per_sec"] > 0
for stage in ("single_scenario", "campaign"):
    assert doc[stage]["scenarios_per_sec"] > 0, stage
    assert doc[stage]["sim_events"] > 0, stage
    assert doc[stage]["ns_per_event"] > 0, stage
subsystems = doc["single_scenario"]["subsystems"]
expected = {"vm_fault", "scheduler", "filesystem", "careful_rpc",
            "sips", "recovery", "other"}
assert set(subsystems) == expected, sorted(subsystems)
for name, entry in subsystems.items():
    for field in ("ns", "ops", "ns_per_op", "share"):
        assert isinstance(entry[field], (int, float)), (name, field)
    assert 0.0 <= entry["share"] <= 1.0, name
# Exclusive attribution: shares of the bracketed run partition it.
assert 0.97 <= sum(e["share"] for e in subsystems.values()) <= 1.01
PYEOF
else
  # No python3: structural grep fallback on the required fields.
  for field in '"schema": "hive-bench-v3"' '"peak_rss_bytes"' '"schedule_run"' \
               '"cancel_churn"' '"single_scenario"' '"campaign"' \
               '"subsystems"' '"vm_fault"' '"careful_rpc"'; do
    grep -qF "$field" "$bench_json" || fail "hive_bench JSON missing $field"
  done
fi

echo "== hive_serve smoke: soak harness meets SLOs and emits valid JSON =="
SERVE="$BUILD_DIR/tools/hive_serve/hive_serve"
[[ -x "$SERVE" ]] || fail "hive_serve not built at $SERVE"
serve_json="$BUILD_DIR/serve_smoke.json"
"$SERVE" --smoke --out="$serve_json" || fail "hive_serve --smoke exited nonzero"
[[ -s "$serve_json" ]] || fail "hive_serve --smoke wrote no JSON"
if command -v python3 >/dev/null 2>&1; then
  python3 - "$serve_json" <<'PYEOF' || fail "hive_serve JSON failed schema validation"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
assert doc["schema"] == "hive-serve-v1", doc.get("schema")
assert doc["oracles"]["ok"] is True and doc["oracles"]["violations"] == []
req = doc["requests"]
assert req["submitted"] > 0 and req["completed"] > 0
assert req["hung"] == 0
assert req["shed"] > 0, "admission control never fired under the overload bursts"
lat = doc["latency_ns"]
assert lat["count"] == req["completed"]
assert 0 < lat["p50"] <= lat["p99"] <= lat["p999"] <= lat["max"]
avail = doc["availability"]
assert len(avail["per_cell"]) == doc["cells"]
assert 0.0 < avail["min"] <= 1.0
assert avail["min"] == min(avail["per_cell"])
faults = doc["faults"]
assert faults["landed"] > 0 and faults["requests_per_fault"] > 0
for family, landed in faults["per_family"].items():
    assert landed > 0, f"fault family never landed: {family}"
rec = doc["recovery"]
assert rec["episodes"] > 0 and rec["recoveries_run"] > 0
assert rec["reintegrations"] > 0
assert 0 < rec["duration_ms_p50"] <= rec["duration_ms_max"]
assert isinstance(doc["fingerprint"], str) and len(doc["fingerprint"]) == 16
int(doc["fingerprint"], 16)
assert isinstance(doc["peak_rss_bytes"], int) and doc["peak_rss_bytes"] > 0
wax = doc["wax"]
assert wax["incarnations"] > 0 and wax["scans"] > 0
PYEOF
else
  for field in '"schema": "hive-serve-v1"' '"requests"' '"latency_ns"' \
               '"availability"' '"per_family"' '"recovery"' '"fingerprint"' \
               '"oracles"' '"wax"'; do
    grep -qF "$field" "$serve_json" || fail "hive_serve JSON missing $field"
  done
fi

echo "== hive_serve sensitivity: seeded bugs must trip the SLO oracles =="
# Each --bug mode disables one defense; the run must exit 3 (SLO violations)
# and name the violated oracle, proving the SLO accounting can fail rather
# than passing vacuously.
noshed_log="$BUILD_DIR/serve_no_shed.log"
serve_status=0
"$SERVE" --smoke --bug=no_shed --out="$BUILD_DIR/serve_no_shed.json" \
  >"$noshed_log" 2>&1 || serve_status=$?
[[ "$serve_status" -eq 3 ]] || {
  cat "$noshed_log"
  fail "hive_serve --bug=no_shed exited $serve_status (want 3: SLO violation)"
}
grep -q "latency-p999" "$noshed_log" || {
  cat "$noshed_log"
  fail "no_shed run did not name the latency-p999 SLO"
}
slowrec_log="$BUILD_DIR/serve_slow_recovery.log"
serve_status=0
"$SERVE" --smoke --bug=slow_recovery --out="$BUILD_DIR/serve_slow_recovery.json" \
  >"$slowrec_log" 2>&1 || serve_status=$?
[[ "$serve_status" -eq 3 ]] || {
  cat "$slowrec_log"
  fail "hive_serve --bug=slow_recovery exited $serve_status (want 3: SLO violation)"
}
grep -q "recovery-time" "$slowrec_log" || {
  cat "$slowrec_log"
  fail "slow_recovery run did not name the recovery-time SLO"
}

echo "== determinism gate: pinned campaign, serve and table-bench outputs =="
# Simulated outcomes are a pure function of the seed. These values were
# recorded when the campaign and serve engines and each table bench last
# changed behaviour on purpose; a change that moves one must say why and
# re-pin it here.
for pin in "1 0xdb04285cabc443e6" "2 0xc2a675449ec784e7" "3 0xb17333af28bb2253"; do
  read -r pin_seed pin_fp <<<"$pin"
  pin_log="$BUILD_DIR/pinned_campaign_${pin_seed}.log"
  "$CAMPAIGN" --seed="$pin_seed" --scenarios=600 --workers="$JOBS" \
    >"$pin_log" 2>&1 || {
    tail -n 40 "$pin_log"
    fail "pinned campaign --seed=$pin_seed reported oracle violations"
  }
  grep -q "merged-fingerprint=$pin_fp\$" "$pin_log" || {
    tail -n 5 "$pin_log"
    fail "campaign --seed=$pin_seed --scenarios=600 merged fingerprint is not $pin_fp"
  }
done
for pin in "262a6b60560067f2" "29263da4a636b1d8 --cells=8 --tenants=32" \
  "f5895eefd6d1bab7 --cells=16 --tenants=64"; do
  read -r pin_fp pin_args <<<"$pin"
  pin_log="$BUILD_DIR/pinned_serve_${pin_fp}.log"
  serve_status=0
  # shellcheck disable=SC2086
  "$SERVE" --seed=1 $pin_args --out="$BUILD_DIR/pinned_serve_${pin_fp}.json" \
    >"$pin_log" 2>&1 || serve_status=$?
  [[ "$serve_status" -eq 0 || "$serve_status" -eq 3 ]] || {
    tail -n 40 "$pin_log"
    fail "hive_serve --seed=1 $pin_args exited $serve_status (want a verdict: 0 or 3)"
  }
  grep -q "^fingerprint: $pin_fp " "$pin_log" || {
    grep "^fingerprint:" "$pin_log" || true
    fail "hive_serve --seed=1 $pin_args fingerprint is not $pin_fp"
  }
  # Wax exits on every cell failure and each recovery starts one fresh
  # incarnation with one pending scan every 100 ms (paper section 3.2), so
  # the scan count is bounded by the simulated run length, not by the
  # number of recoveries survived.
  pin_json="$BUILD_DIR/pinned_serve_${pin_fp}.json"
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$pin_json" <<'PYEOF' || fail "hive_serve --seed=1 $pin_args leaked Wax scan chains"
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
wax = doc["wax"]
bound = (doc["duration_s"] + doc["drain_s"]) * 10 + wax["incarnations"]
assert wax["scans"] <= bound, f"wax scans {wax['scans']} > {bound}: {wax}"
PYEOF
  fi
done

# Every table bench in bench/ is a pure function of its source: each must
# exit 0 (a failed call or an uncontained fault exits 1) and print exactly
# the pinned stdout. EXPERIMENTS.md's tables come from these outputs, and
# Table 7.4 injects through the same library as the campaign and the soak.
# gb_microbench times the host and stays out.
for pin in \
  "sec6_rpc 921606980afbfa0f3f60b47949eabf47eb252c0259cc4b799e7b9f379d7ee27a" \
  "sec41_careful_ref a3905c6142b21600f5340713b8d658dd5aaae437add6aa1f5d0effbbae9d438d" \
  "tab52_page_fault fab15926ad6df3abd48e4989f06b7bfb70cda02c5cf0910698b17b3c0e0f367d" \
  "tab73_kernel_ops 2558fc10e2d19e0ae95fc89fa97e589c8360a6fb27f906420ab745b850fd48f2" \
  "tab72_workloads 18095d74c1c73a0f673a9c92482ca04aa21ff1aea112dcfaeade274bf09fbde7" \
  "sec42_firewall_overhead f582b35438004f4fec6dcd187a0bc724adf98b3b9d8d0e5327b459f30c9f0777" \
  "sec42_writable_pages 7f033b32916119caa90884eeb87fde3b2d975f4f6156c34b9f3b666577628398" \
  "sec52_pmake_faults e12654c768390db871dc432dfa209b4061cd0516a3ddfc4f56bf7c724b996bc5" \
  "tab74_fault_injection 1d19ad0e47d23c1f8cdf296504d433dcda39fd356125be60717f4f7e56259413" \
  "abl_detection_freq eff7e88689cfae7be3dca607ec15127f937c5bf792d4548cd00d0e57909e1ae1" \
  "abl_firewall_policy 0433a19fa2c5adda8c76632e2e0ab7576960945284dd0260f7da01a90537012d" \
  "abl_agreement 1dc45f23e912e87421d4e94f83a81ba3581a87e3a0d678e712f9d3c95f4be9c9" \
  "abl_rpc_level ae0cfa3cb61f7ead267115c761b0784cea828e483fd16cac4216ba1a0228cb66" \
  "abl_numa_placement 318ec3bee09fc34de597860bee704fc21466cda586f2653da124a27094f0965a"; do
  read -r bench_name bench_sha <<<"$pin"
  bench_bin="$BUILD_DIR/bench/$bench_name"
  [[ -x "$bench_bin" ]] || fail "$bench_name not built at $bench_bin"
  bench_out="$BUILD_DIR/pinned_${bench_name}.out"
  "$bench_bin" >"$bench_out" 2>"$bench_out.err" || {
    cat "$bench_out" "$bench_out.err"
    fail "$bench_name exited nonzero"
  }
  got_sha="$(sha256sum "$bench_out" | cut -d' ' -f1)"
  [[ "$got_sha" == "$bench_sha" ]] || {
    cat "$bench_out"
    fail "$bench_name output sha256 is $got_sha, not the pinned value"
  }
done

echo "== bus-error crash family: 20000-scenario campaign sweep =="
# A trap taken by a kernel whose node died before its next clock tick once
# escaped the event loop (first at scenario 608 of seed 2) or panicked the
# wrong cell. Every trap now panics only the kernel that took it, so the
# sweep must reach a verdict with no violation.
"$CAMPAIGN" --seed=2 --scenarios=20000 --workers="$JOBS" \
  >"$BUILD_DIR/bus_error_sweep.log" 2>&1 || {
  tail -n 40 "$BUILD_DIR/bus_error_sweep.log"
  fail "campaign --seed=2 --scenarios=20000 did not pass every oracle"
}

echo "== host kernel: campaign minor page faults =="
# PhysMem takes each host page on its first write from a per-thread free list
# and hands it back when the scenario's machine goes, so a scenario costs a
# few faults, not one per page it touches (about 855,000 for this run when
# every machine mapped a fresh image; about 8,900 with pooled pages).
if command -v python3 >/dev/null 2>&1; then
  python3 - "$CAMPAIGN" <<'PYEOF' || fail "hive_campaign --seed=1 --scenarios=3000 --workers=1 took too many minor page faults"
import resource, subprocess, sys
subprocess.run([sys.argv[1], "--seed=1", "--scenarios=3000", "--workers=1"],
               stdout=subprocess.DEVNULL, check=True)
faults = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt
print(f"minor page faults: {faults} (limit 30000)")
assert faults <= 30000, f"{faults} minor page faults > 30000"
PYEOF
else
  echo "python3 not found; skipping the page-fault check"
fi

echo "== BENCH files: committed numbers must match a fresh run =="
# The soak's JSON and hive_bench's deterministic fields are pure functions of
# the source, so CI regenerates them and compares. Host-timed fields (wall
# seconds, rates, ns, peak RSS) are left out.
bench_full_json="$BUILD_DIR/bench_full.json"
"$BENCH" --out="$bench_full_json" >"$BUILD_DIR/bench_full.log" 2>&1 || {
  cat "$BUILD_DIR/bench_full.log"
  fail "hive_bench at its defaults exited nonzero"
}
if command -v python3 >/dev/null 2>&1; then
  python3 - "$SOURCE_DIR" "$BUILD_DIR/pinned_serve_262a6b60560067f2.json" \
    "$bench_full_json" <<'PYEOF' || fail "a committed BENCH file is stale: rerun hive_serve / hive_bench at their defaults"
import json, sys
source, serve_json, bench_json = sys.argv[1:4]

def load(path):
    with open(path) as f:
        return json.load(f)

def diff(committed, fresh, path):
    """Yields (path, committed, fresh) for every field that differs."""
    if isinstance(committed, dict) and isinstance(fresh, dict):
        for key in sorted(set(committed) | set(fresh)):
            sub = f"{path}.{key}" if path else key
            yield from diff(committed.get(key), fresh.get(key), sub)
    elif (isinstance(committed, list) and isinstance(fresh, list)
          and len(committed) == len(fresh)):
        for i, (c, f) in enumerate(zip(committed, fresh)):
            yield from diff(c, f, f"{path}[{i}]")
    elif committed != fresh:
        yield path, committed, fresh

def lookup(doc, path):
    for key in path.split("."):
        doc = doc.get(key) if isinstance(doc, dict) else None
    return doc

stale = [("BENCH_serve.json",) + found
         for found in diff(load(f"{source}/BENCH_serve.json"), load(serve_json), "")
         if found[0] != "peak_rss_bytes"]

sim_committed = load(f"{source}/BENCH_sim.json")
sim_fresh = load(bench_json)
fields = ["schema", "mode", "seed", "workers"]
for stage in ("single_scenario", "campaign"):
    fields += [f"{stage}.scenarios", f"{stage}.sim_events"]
subsystems = set(sim_committed["single_scenario"]["subsystems"])
subsystems |= set(sim_fresh["single_scenario"]["subsystems"])
fields += [f"single_scenario.subsystems.{name}.ops" for name in sorted(subsystems)]
for field in fields:
    committed, fresh = lookup(sim_committed, field), lookup(sim_fresh, field)
    if committed is None or committed != fresh:
        stale.append(("BENCH_sim.json", field, committed, fresh))

for name, field, committed, fresh in stale:
    print(f"{name}: {field} is {committed!r} committed, {fresh!r} on a fresh run")
sys.exit(1 if stale else 0)
PYEOF
else
  echo "python3 not found; skipping the BENCH staleness check"
fi

echo "== sanitizer build: ASan+UBSan test suite =="
ASAN_DIR="$BUILD_DIR/check-asan"
cmake -B "$ASAN_DIR" -S "$SOURCE_DIR" \
  -DHIVE_SANITIZE=address,undefined \
  -DHIVE_ENABLE_CHECKS_TEST=OFF >/dev/null
cmake --build "$ASAN_DIR" --target hive_tests -j "$JOBS" >/dev/null
ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$JOBS" \
  -E '^(hive_lint_clean|hive_lint_fixture)' || fail "sanitizer test suite failed"

echo "== sanitizer build: examples =="
# The examples schedule injected failures from injectors built in scopes that
# end before the failure fires; each must exit 0 with no sanitizer report.
EXAMPLES="quickstart compute_server parallel_app maintenance"
# shellcheck disable=SC2086
cmake --build "$ASAN_DIR" --target $EXAMPLES -j "$JOBS" >/dev/null
for example in $EXAMPLES; do
  example_log="$ASAN_DIR/example_${example}.log"
  "$ASAN_DIR/examples/$example" >"$example_log" 2>&1 || {
    tail -n 40 "$example_log"
    fail "ASan+UBSan example $example exited nonzero"
  }
  if grep -qE "Sanitizer|runtime error:" "$example_log"; then
    tail -n 40 "$example_log"
    fail "ASan+UBSan example $example printed a sanitizer report"
  fi
done

echo "== sanitizer build: hive_serve seed x geometry matrix =="
# Wider soaks fork, kill and reboot far more processes than the smoke soak;
# this is where freed exit waiters, dangling callbacks and traps escaping
# the event loop show up. Each of the 54 full-length runs must reach a
# verdict: 0 (SLOs met) or 3 (SLO violations).
cmake --build "$ASAN_DIR" --target hive_serve -j "$JOBS" >/dev/null
for seed in 1 2 3 4 5 6; do
  for cells in 4 8 16; do
    for tenants in 8 32 64; do
      echo "$seed $cells $tenants"
    done
  done
done | xargs -P "$JOBS" -L 1 bash -c '
  run="$0/serve_matrix_${1}_${2}x${3}"
  status=0
  "$0/tools/hive_serve/hive_serve" --seed="$1" --cells="$2" --tenants="$3" \
    --out="$run.json" >"$run.log" 2>&1 || status=$?
  echo "hive_serve --seed=$1 --cells=$2 --tenants=$3: exit $status"
  if [[ "$status" -ne 0 && "$status" -ne 3 ]]; then
    tail -n 40 "$run.log"
    exit 1
  fi' "$ASAN_DIR" || fail "an ASan hive_serve soak ended without a verdict"

echo "== sanitizer build: TSan campaign thread pool =="
# The campaign driver's scenario worker pool is the only multithreaded
# component (each scenario is one serial event loop); build just it and its
# tests under ThreadSanitizer and run a multi-worker sweep to shake out data
# races in the pool. The message-fault
# sweep additionally exercises the RPC retry/backoff/quarantine state machine
# on every worker thread.
TSAN_DIR="$BUILD_DIR/check-tsan"
cmake -B "$TSAN_DIR" -S "$SOURCE_DIR" \
  -DHIVE_SANITIZE=thread \
  -DHIVE_ENABLE_CHECKS_TEST=OFF >/dev/null
cmake --build "$TSAN_DIR" --target campaign_test hive_campaign -j "$JOBS" >/dev/null
"$TSAN_DIR/tests/campaign_test" \
  --gtest_filter='CampaignDriverTest.*' || fail "TSan campaign_test failed"
"$TSAN_DIR/tools/hive_campaign/hive_campaign" \
  --seed=1 --scenarios=40 --workers=8 || fail "TSan campaign sweep failed"
"$TSAN_DIR/tools/hive_campaign/hive_campaign" \
  --seed="$MSG_SEED" --scenarios=24 --workers=8 --faults=message || \
  fail "TSan message-fault sweep failed"
"$TSAN_DIR/tools/hive_campaign/hive_campaign" \
  --seed="$MSG_SEED" --scenarios=24 --workers=8 --faults=reboot-storm || \
  fail "TSan reboot-storm sweep failed"

if [[ "${HIVE_CAMPAIGN_SCENARIOS:-0}" -gt 0 ]]; then
  echo "== nightly-scale campaign: ${HIVE_CAMPAIGN_SCENARIOS} scenarios =="
  CAMPAIGN="$BUILD_DIR/tools/hive_campaign/hive_campaign"
  [[ -x "$CAMPAIGN" ]] || fail "hive_campaign not built at $CAMPAIGN"
  "$CAMPAIGN" --seed="${HIVE_CAMPAIGN_SEED:-1}" \
    --scenarios="$HIVE_CAMPAIGN_SCENARIOS" --workers="$JOBS" || \
    fail "nightly campaign sweep reported containment violations"
fi

echo "run_checks: OK"
