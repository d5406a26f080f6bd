#!/usr/bin/env python3
"""Short-size self-test of the ttsc-perf benchmark.

    python3 perfbench/test/selftest.py

Runs every workload of BENCHMARK.json small (1 s, a few campaign injections
per cell), untraced and traced, and checks that

  * the last stdout line is the result object, and it prints every metric
    BENCHMARK.json names for that mode (end_to_end untraced, per_layer
    traced), each with its unit and a finite value, and no other metric;
  * the output checks pass: "correct" is true, "failed" is 0, exit code 0;
  * the traced run's mirror cross-check holds (its detail line lists no
    errors);

and that the benchmark exits non-zero without a result in a directory that
holds only BENCHMARK.json and perfbench/. Exits 1 on the first failure.
"""
import json
import math
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
# Injections per cell for the small campaign runs.
SMALL_INJECTIONS = {"campaign": 48, "campaign-protected": 16}


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run(workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    if workload in SMALL_INJECTIONS:
        cmd += ["--injections", str(SMALL_INJECTIONS[workload])]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = p.stdout.strip().splitlines()
    if len(lines) < 2:
        fail(f"{workload} trace={trace}: no result (exit {p.returncode})\n{p.stderr[-2000:]}")
    return p.returncode, json.loads(lines[-2])["ttsc_perf"], json.loads(lines[-1])


def check(workload, trace, spec):
    code, detail, result = run(workload, trace)
    where = f"{workload} trace={trace}"
    if list(result) != ["correct", "attempted", "failed", "metrics"]:
        fail(f"{where}: result keys {list(result)}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != set(expected):
        fail(f"{where}: metrics {sorted(set(result['metrics']) ^ set(expected))} "
             "differ from BENCHMARK.json")
    for name, unit in expected.items():
        m = result["metrics"][name]
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)) \
                or not math.isfinite(m["value"]):
            fail(f"{where}: metric {name} = {m}")
        if not trace and m["value"] == 0:
            fail(f"{where}: end-to-end metric {name} is 0")
    if code != 0 or result["correct"] is not True or result["failed"] != 0 \
            or result["attempted"] < 1:
        fail(f"{where}: output checks failed (exit {code}): {detail['errors']}")
    if detail["errors"]:
        fail(f"{where}: {detail['errors']}")
    print(f"selftest: ok {where} ({result['attempted']} attempted)")


def check_bare_directory():
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(bare, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        p = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "grid", "--seed",
                            "1", "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        fail(f"bare directory: exit {p.returncode}, stdout {p.stdout[:200]!r}")
    print("selftest: ok bare directory fails closed")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check(w["name"], trace, spec)
    check_bare_directory()
    print("selftest: PASS")


if __name__ == "__main__":
    main()
