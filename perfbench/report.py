#!/usr/bin/env python3
"""Collect, summarize, and compare benchmark result sets.

A result set is a JSON-Lines file, one benchmark run per line:
{"workload": ..., "seed": ..., "trace": 0|1, "result": {...}}.

    # run every workload on seeds 1..5, append to a set, print the summary
    python3 perfbench/report.py run --out perfbench/results/base.jsonl --seeds 1-5
    # print every metric: unit, median, quartiles, sample count, spread
    python3 perfbench/report.py show perfbench/results/base.jsonl
    # apply BENCHMARK.json's bounds to a change against its parent
    python3 perfbench/report.py compare perfbench/results/base.jsonl perfbench/results/change.jsonl

Run from the root of a checkout. `run` uses BENCHMARK.json's run_seconds
and all of its workloads, so every set is measured alike. Quartiles are
Python's statistics.quantiles(n=4); spread is (q3 - q1) / median.
`compare` calls a workload a regression when any of the change's runs is
incorrect or the change fails more units than the parent. It calls a
metric a regression when the change's median is worse than the parent's
by more than the bound (for a count, by anything at all: counts are
exact), and unresolved when either side's spread exceeds the bound
(unless every run of the change beats every run of the parent). It exits 1
on any regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def load_targets():
    with open(os.path.join(HERE, "targets.json")) as f:
        return json.load(f)


def read_set(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def samples(records, workload, trace):
    """metric name -> (unit, [values]) over the matching runs."""
    out = {}
    for rec in records:
        if rec["workload"] != workload or rec["trace"] != trace:
            continue
        for name, m in rec["result"]["metrics"].items():
            out.setdefault(name, (m["unit"], []))[1].append(m["value"])
    return out


def workloads_in(records):
    return list(dict.fromkeys(rec["workload"] for rec in records))


def show(records):
    bench = load_benchmark()
    targets = load_targets()["per_layer"]
    for workload in workloads_in(records):
        for trace, metrics in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            runs = [r for r in records if r["workload"] == workload and r["trace"] == trace]
            if not runs:
                continue
            failed = sum(r["result"]["failed"] for r in runs)
            attempted = sum(r["result"]["attempted"] for r in runs)
            correct = all(r["result"]["correct"] for r in runs)
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"\n{workload} — {kind}: {len(runs)} run(s), correct={correct}, "
                  f"failed {failed}/{attempted} units")
            print(f"  {'metric':<38} {'unit':<6} {'median':>14} {'q1':>14} {'q3':>14} "
                  f"{'n':>3} {'spread':>7}  target")
            got = samples(records, workload, trace)
            for m in metrics:
                unit, values = got.get(m["name"], (m["unit"], []))
                if not values:
                    print(f"  {m['name']:<38} {unit:<6} {'missing':>14}")
                    continue
                q1, med, q3 = quartiles(values)
                target = targets.get(m["name"], {}).get("target", "") if trace else ""
                print(f"  {m['name']:<38} {unit:<6} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                      f"{len(values):>3} {spread(values):>7.3f}  {target}")


def failures(records, workload):
    """(failed units, whether every run was correct) over a workload's runs."""
    runs = [r["result"] for r in records if r["workload"] == workload]
    return sum(r["failed"] for r in runs), all(r["correct"] for r in runs)


def compare(base, change):
    bench = load_benchmark()
    regressions = 0
    print(f"{'workload':<16} {'metric':<14} {'parent':>12} {'change':>12} {'worse by':>9} "
          f"{'bound':>6} {'spreads':>13}  verdict")
    for workload in workloads_in(base):
        (b_failed, _), (c_failed, c_correct) = failures(base, workload), failures(change, workload)
        if not c_correct or c_failed > b_failed:
            print(f"{workload:<16} {'failed units':<14} {b_failed:>12} {c_failed:>12} "
                  f"{'':>30}  REGRESSION (correct={c_correct})")
            regressions += 1
        b_all, c_all = samples(base, workload, 0), samples(change, workload, 0)
        for m in bench["end_to_end"]:
            b, c = b_all.get(m["name"], (None, []))[1], c_all.get(m["name"], (None, []))[1]
            if not b or not c:
                print(f"{workload:<16} {m['name']:<14} {'(no runs on one side)':>40}")
                continue
            bm, cm = statistics.median(b), statistics.median(c)
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (cm - bm) / bm if bm else 0.0
            sb, sc = spread(b), spread(c)
            beats_all = (max(c) < min(b)) if sign == 1 else (min(c) > max(b))
            bound = 0.0 if m["unit"] == "count" else m["bound"]
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif max(sb, sc) > bound and not beats_all:
                verdict = "unresolved (spread above bound)"
            elif beats_all and worse < 0:
                verdict = "better in every run"
            else:
                verdict = "within bound"
            print(f"{workload:<16} {m['name']:<14} {bm:>12.6g} {cm:>12.6g} {worse:>+9.3f} "
                  f"{bound:>6.2f} {sb:>6.3f}/{sc:<6.3f}  {verdict}")
    return regressions


def run(args):
    bench = load_benchmark()
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in workloads:
                cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                          "--seconds", str(seconds), "--trace", str(args.trace)]
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
                if done.returncode != 0:
                    sys.exit(f"report.py: {workload} seed {seed} exited {done.returncode}")
                result = json.loads(done.stdout.strip().splitlines()[-1])
                rec = {"workload": workload, "seed": seed, "trace": args.trace, "result": result}
                out.write(json.dumps(rec) + "\n")
                out.flush()
                print(f"{workload} seed {seed}: correct={result['correct']}", file=sys.stderr)
    show(read_set(args.out))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run workloads and append to a result set")
    r.add_argument("--out", required=True)
    r.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("show", help="summarize result sets")
    s.add_argument("sets", nargs="+")
    c = sub.add_parser("compare", help="parent set vs change set, against the bounds")
    c.add_argument("base")
    c.add_argument("change")
    args = ap.parse_args()
    if args.cmd == "run":
        run(args)
    elif args.cmd == "show":
        show([rec for path in args.sets for rec in read_set(path)])
    else:
        sys.exit(1 if compare(read_set(args.base), read_set(args.change)) else 0)


if __name__ == "__main__":
    main()
