#!/usr/bin/env python3
"""Build and run the ttsc-perf benchmark from the root of a checkout.

    python3 perfbench/run.py --workload grid|campaign|campaign-protected \
        --seed N --seconds S --trace 0|1 [--injections K]

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt): it
builds the ttsc library from src/ and the ttsc_perf program, in Release, into
$CARGO_TARGET_DIR or .bench_build. Build output goes to stderr, so stdout
carries only the two JSON lines of ttsc_perf; the last one is the result. With
--trace 1 the span trace is written next to the build as
trace-<workload>-<seed>.json (Chrome trace-event format).
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "perfbench")


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: src/CMakeLists.txt not found; run from a full checkout")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", PACKAGE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "ttsc_perf", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ttsc_perf")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["grid", "campaign", "campaign-protected"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--injections", type=int,
                   help="campaign injections per cell (self-test sizes)")
    a = p.parse_args()
    if a.seed < 0 or a.seconds < 1:
        p.error("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace]
    if a.injections is not None:
        cmd += ["--injections", str(a.injections)]
    if a.trace == "1":
        cmd += ["--trace-out",
                os.path.join(build_dir, f"trace-{a.workload}-{a.seed}.json")]
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
