#!/usr/bin/env python3
"""Builds and runs ngsx_perfbench from the root of a source checkout.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is built from ../src into $CARGO_TARGET_DIR (default
.bench_build) on first use. Inputs and outputs live in .bench_work/ and are
removed when the run ends. The last stdout line is the result JSON; on any
build or run failure the script exits non-zero without printing one.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)  # the source checkout
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures and builds the benchmark; returns the binary path."""
    cmd = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
           "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target",
                    "ngsx_perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "ngsx_perfbench")


def expected_metrics(trace):
    """(name, unit) pairs BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    try:
        want = expected_metrics(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 1
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    build_dir = os.path.join(target_dir, "ngsx-perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    work_dir = os.path.join(ROOT, ".bench_work",
                            f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work_dir)
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work_dir, "--trace-out",
           os.path.join(trace_dir, f"{args.workload}.json")]
    env = dict(os.environ, TMPDIR=work_dir)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"perfbench: ngsx_perfbench exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    got = {(name, m["unit"]) for name, m in result["metrics"].items()}
    if got != want:
        log(f"perfbench: metrics differ from BENCHMARK.json: {sorted(got ^ want)}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
