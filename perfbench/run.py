#!/usr/bin/env python3
"""Build and run one perfbench workload, then print its result.

    python3 perfbench/run.py --workload calibrate_paper --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The benchmark is compiled from
source into $CARGO_TARGET_DIR (default .bench_build)/perfbench-cmake; a
current build is a no-op. The benchmark removes every HTD_OBS* variable
from its own environment and reports which it removed. Temporary files
(artifact, fingerprint batches, reports, journal) live in a per-run
directory under the build directory and are deleted afterwards; a traced
run keeps its htd.trace.v1 file under <build dir>/perfbench-traces/ and
validates it with `htd_profile --validate`.

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}. The exit code is 0 only when
every output checked out.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target) if not os.path.isabs(target) else target


def cached_source_dir(cache):
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:"):
                return line.split("=", 1)[1].strip()
    return None


def build(targets):
    """Configure (once) and build `targets`; returns the CMake binary dir."""
    out = os.path.join(build_dir(), "perfbench-cmake")
    # Keep the compiler's and the benchmark's temporary files in the checkout.
    os.environ["TMPDIR"] = os.path.join(build_dir(), "tmp")
    os.makedirs(os.environ["TMPDIR"], exist_ok=True)
    cache = os.path.join(out, "CMakeCache.txt")
    if os.path.exists(cache) and cached_source_dir(cache) != HERE:
        shutil.rmtree(out)  # configured for another checkout
    if not os.path.exists(cache):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", "4", "--target", *targets],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out


def run_workload(args):
    out = build(["htd_perfbench", "htd_profile"])
    work = os.path.join(build_dir(), "perfbench-work", f"{args.workload}-{args.seed}-{os.getpid()}")
    traces = os.path.join(build_dir(), "perfbench-traces")
    trace_out = os.path.join(traces, f"{args.workload}-seed{args.seed}.trace.json")
    cmd = [os.path.join(out, "htd_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", work]
    if args.trace == 1:
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(proc.stdout)
        log(f"no result line (exit {proc.returncode})")
        return 1
    print("\n".join(lines[:-1]))
    code = proc.returncode
    if args.trace == 1:
        check = subprocess.run([os.path.join(out, "htd_profile", "htd_profile"), "--validate",
                                trace_out], stdout=subprocess.PIPE, text=True)
        print(check.stdout.rstrip("\n"))
        if check.returncode != 0:
            result["correct"] = False
            code = code or 1
    print(json.dumps(result), flush=True)
    return code


def selftest():
    out = build(["perfbench_selftest"])
    return subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="calibrate_paper, score_lot or triage_journaled")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own unit tests")
    args = parser.parse_args()
    if not os.path.exists(os.path.join(ROOT, "src", "pipeline", "pipeline.hpp")):
        log(f"no library sources under {ROOT}/src; run from a full source checkout")
        return 2
    try:
        if args.selftest:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        return run_workload(args)
    except subprocess.CalledProcessError as e:
        log(f"build failed: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
