#!/usr/bin/env python3
"""Build the benchmark from source, run one workload, print its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

The benchmark is the Rust package in this directory; it is built with
cargo into $CARGO_TARGET_DIR (default `.bench_build`) and run with its
scratch files under `.bench_work/`, which is removed afterwards. The last
line of standard output is the result object: `correct`, `attempted`,
`failed`, and `metrics` — the end-to-end metrics of BENCHMARK.json with
`--trace 0`, its per-layer metrics with `--trace 1`. Any failure exits
non-zero without printing a result.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("table1_campaign", "grid_short", "frontier_maps")
# A run measures for at most 60 s, plus a serial warm-up pass.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Build the release binary; cargo's own output goes to stderr."""
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"cargo build: {e}")
    if done.returncode != 0:
        fail(f"cargo build failed with exit code {done.returncode}")
    return os.path.join(target, "release", "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--threads", type=int, default=2,
                    help="campaign and frontier workers (default 2)")
    args = ap.parse_args()

    binary = build()
    work = os.path.join(".bench_work", f"run-{os.getpid()}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads), "--work", work]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"benchmark run: {e}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(".bench_work")
        except OSError:
            pass
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if not lines:
        fail("benchmark printed no result")
    result = json.loads(lines[-1])
    names = expected_metrics(args.trace)
    if sorted(names) != sorted(result["metrics"]):
        fail("metrics differ from BENCHMARK.json: "
             f"{sorted(set(names) ^ set(result['metrics']))}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
