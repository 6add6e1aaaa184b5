#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> \\
        --seconds <s> --trace <0|1>

Workloads: batch-percall, batch-cached (perfbench/README.md says what
each measures and why). Run from the root of a checkout:
the first run configures and builds libse and the harness into
.bench_build/perfbench, later runs only re-check that build. Each run
executes the harness self-tests first, then the benchmark, whose last
stdout line is the JSON result. Exits non-zero without a result when
the checkout has no library sources, the build or a self-test fails,
a response differs from its reference, or the run outlives its time
limit.
"""

import argparse
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("batch-percall", "batch-cached")
BUILD_JOBS = "4"
# Beyond --seconds, a run does five set-ups, forty idle reloads and,
# traced, a replay and loader probes: 10-15 s on a 4-vCPU VM.
SETUP_ALLOWANCE_S = 120


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step; show its output only when it fails."""
    try:
        p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True,
                           timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"'{' '.join(cmd)}' did not finish within {timeout} s", 1)
    if p.returncode != 0:
        sys.stderr.write(p.stdout)
        fail(f"'{' '.join(cmd)}' exited {p.returncode}", 1)


def build():
    if not (ROOT / "src" / "serve" / "front.hh").is_file():
        fail(f"no library sources under {ROOT / 'src'}; "
             "run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake is not installed")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_quiet(["cmake", "-S", str(HERE), "-B", str(BUILD),
                   "-DCMAKE_BUILD_TYPE=Release"], 600)
    run_quiet(["cmake", "--build", str(BUILD), "-j", BUILD_JOBS], 900)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()
    run_quiet([str(BUILD / "perfbench_selftest")], 60)

    workdir = BUILD / "work"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    if args.trace:
        cmd += ["--trace-out",
                str(BUILD / f"trace-{args.workload}-{args.seed}.json")]
    timeout = args.seconds + SETUP_ALLOWANCE_S
    try:
        # The result line goes straight to our stdout.
        rc = subprocess.run(cmd, cwd=ROOT, timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        fail(f"the benchmark did not finish within {timeout} s", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.exit(rc)


if __name__ == "__main__":
    main()
