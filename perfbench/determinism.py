#!/usr/bin/env python3
"""Check that the benchmark's counts repeat exactly across runs and workers.

    python3 perfbench/determinism.py [--seed 1]

For each workload of BENCHMARK.json it runs the traced benchmark twice at 2 workers and once
at 1 worker, and the untraced benchmark at 1 and at 2 workers. `sim_rounds`
and every per-layer metric counted in unit `count` (engine.*, frontier.*,
scenario.fsyncs, spec.units, ...) must be identical across those runs, and
every run must report correct. Exits 1 on any difference. Run from the root
of a checkout.
"""

import argparse
import json
import subprocess
import sys


def run(workload, seed, trace, threads, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--threads", str(threads)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"determinism.py: {' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items() if m["unit"] == "count"}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]

    bad = 0
    for workload in workloads:
        runs = {
            "traced, 2 workers, first": run(workload, args.seed, 1, 2, 1),
            "traced, 2 workers, second": run(workload, args.seed, 1, 2, 1),
            "traced, 1 worker": run(workload, args.seed, 1, 1, 1),
            "untraced, 2 workers": run(workload, args.seed, 0, 2, 1),
            "untraced, 1 worker": run(workload, args.seed, 0, 1, 1),
        }
        for label, result in runs.items():
            if not result["correct"]:
                print(f"{workload}: {label} reported incorrect output")
                bad += 1
        for mode in ("traced", "untraced"):
            group = {k: counts(v) for k, v in runs.items() if k.startswith(mode)}
            first_label, first = next(iter(group.items()))
            for label, got in group.items():
                for name in sorted(set(first) | set(got)):
                    if first.get(name) != got.get(name):
                        print(f"{workload}: {name} = {got.get(name)} ({label}) "
                              f"vs {first.get(name)} ({first_label})")
                        bad += 1
        traced = counts(runs["traced, 1 worker"])
        sim_rounds = counts(runs["untraced, 1 worker"])["sim_rounds"]
        if traced["engine.rounds"] != sim_rounds:
            print(f"{workload}: traced engine.rounds {traced['engine.rounds']} "
                  f"vs untraced sim_rounds {sim_rounds}")
            bad += 1
        print(f"{workload}: {len(traced) + 1} counts compared over {len(runs)} runs")
    if bad:
        sys.exit(f"determinism.py: {bad} difference(s)")
    print("all counts identical")


if __name__ == "__main__":
    main()
