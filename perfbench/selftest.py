#!/usr/bin/env python3
"""Smoke-size self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root. For every workload in BENCHMARK.json it runs
perfbench/run.py at smoke size: once untraced and twice traced with the same
seed. It checks that

  - every run exits 0 and ends with a result line whose "correct" is true and
    whose metrics are exactly BENCHMARK.json's end_to_end (untraced) or
    per_layer (traced) names, each with its declared unit;
  - every end-to-end metric of the workload and every per-layer metric is
    printed as a "metric <name> <value> <unit>" line with a unit;
  - the deterministic lines ("det ...": fingerprints, oracle verdicts and the
    simulated values) are byte-identical across the three runs;
  - the campaign phase probe covers at least 90% of RunScenario's host time.

Exits 0 when every check passes, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 3

# End-to-end metrics each workload prints (the gated subset is in
# BENCHMARK.json; the rest exist only on some workloads).
COMMON = ["setup_s", "sim_s_per_host_s", "peak_rss_mb", "fail_share"]
END_TO_END = {
    "campaign_mix": COMMON + ["scenarios_per_s", "scenario_ms_p50", "scenario_ms_p99"],
    "serve_soak": COMMON + ["sim_req_ms_p50", "sim_req_ms_p999", "sim_availability_min"],
    "serve_wide": COMMON + ["sim_req_ms_p50", "sim_req_ms_p999", "sim_availability_min"],
}


def run(workload, trace):
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
               "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout.splitlines()


def check_run(workload, trace, spec, errors):
    code, lines = run(workload, trace)
    tag = f"{workload} trace={trace}"
    if code != 0 or not lines:
        errors.append(f"{tag}: exit code {code}")
        return []
    result = json.loads(lines[-1])
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"{tag}: result not correct: {lines[-1][:200]}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    got = result.get("metrics", {})
    if set(got) != set(units):
        errors.append(f"{tag}: result metrics differ from BENCHMARK.json: "
                      f"{sorted(set(got) ^ set(units))}")
    for name, entry in got.items():
        if units.get(name) != entry.get("unit"):
            errors.append(f"{tag}: {name} unit {entry.get('unit')} != {units.get(name)}")
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            printed[parts[1]] = parts[3]
    expected = END_TO_END[workload] + (list(units) if trace else [])
    for name in expected:
        if not printed.get(name):
            errors.append(f"{tag}: metric {name} not printed with a unit")
    if workload == "campaign_mix" and trace:
        coverage = got.get("campaign.phase_coverage", {}).get("value", 0)
        if coverage < 0.9:
            errors.append(f"{tag}: campaign.phase_coverage {coverage} < 0.9")
    return [line for line in lines if line.startswith("det ")]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for workload in (entry["name"] for entry in spec["workloads"]):
        det = [check_run(workload, trace, spec, errors) for trace in (0, 1, 1)]
        if not det[1]:
            errors.append(f"{workload}: no deterministic lines printed")
        # The untraced run prints a subset of the traced run's lines (the
        # probe's event count exists only when traced).
        if det[1] != det[2] or any(line not in det[1] for line in det[0]):
            errors.append(f"{workload}: deterministic lines differ between runs")
        print(f"{workload}: {len(det[1])} deterministic lines checked", flush=True)
    for error in errors:
        print("FAIL", error)
    print("selftest:", "ok" if not errors else f"{len(errors)} failure(s)")
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
