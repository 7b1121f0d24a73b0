#!/usr/bin/env python3
"""Steadiness check: run the benchmark K times on one commit and report each end-to-end
metric's median, quartiles and spread against its bound.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 1000] [--out set.json]
    python3 perfbench/steady.py --compare first.json second.json

Run from the root of the source tree. Run i uses seed seed-base + i and visits the workloads
in BENCHMARK.json order on even runs and in reverse order on odd runs, so slow drift of the
host does not land on one workload. The spread is (q3 - q1) / median with the quartiles of
statistics.quantiles(values, n=4); a metric is "steady" below a third of its bound, setup_s
included. --compare reports how much worse each median got from one set to the next.
The share of failed operations is printed per workload; it must not differ between sets.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def load_benchmark():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_set(bench, workloads, runs, seed_base, seconds):
    values = {w: {} for w in workloads}
    counts = {w: [] for w in workloads}
    reference = {w: {} for w in workloads}
    for i in range(runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed_base + i),
                                      "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"run {i} of {w} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
            out = json.loads(lines[-1])
            if not out["correct"]:
                sys.exit(f"run {i} of {w} failed its output checks:\n{proc.stderr[-2000:]}")
            counts[w].append((out["attempted"], out["failed"]))
            for line in lines:
                if line.startswith("reference "):
                    for name, v in json.loads(line[len("reference "):]).items():
                        reference[w].setdefault(name, []).append(v)
            for name, m in out["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"run {i} {w}: " + ", ".join(f"{k}={v['value']:.6g}"
                                              for k, v in out["metrics"].items()),
                  file=sys.stderr, flush=True)
    return {"values": values, "counts": counts, "reference": reference}


def summarize(bench, result):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"{'workload':<16}{'metric':<16}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for w, metrics in result["values"].items():
        for name, vals in metrics.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            if spread < bound / 3:
                verdict = "steady"
            elif spread <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
            print(f"{w:<16}{name:<16}{med:>12.6g}{q1:>12.6g}{q3:>12.6g}"
                  f"{spread:>9.3f}{bound:>7.2f}  {verdict}")
        att = sum(a for a, _ in result["counts"][w])
        fail = sum(f for _, f in result["counts"][w])
        print(f"{w:<16}failed share {fail}/{att}")
        ref = result.get("reference", {}).get(w, {})
        medians = {k: statistics.median(v) for k, v in sorted(ref.items())
                   if v and all(isinstance(x, (int, float)) for x in v)}
        if medians:
            print(f"{w:<16}reference medians " +
                  ", ".join(f"{k}={v:.6g}" for k, v in medians.items()))


def compare(bench, a, b):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    print(f"{'workload':<16}{'metric':<16}{'median 1':>12}{'median 2':>12}{'worse by':>10}"
          f"{'bound':>7}  verdict")
    for w in a["values"]:
        for name, vals in a["values"][w].items():
            m1 = statistics.median(vals)
            m2 = statistics.median(b["values"][w][name])
            bound, better = bounds[name]
            worse = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            verdict = "ok" if worse <= bound else "DRIFT"
            print(f"{w:<16}{name:<16}{m1:>12.6g}{m2:>12.6g}{worse:>10.3f}{bound:>7.2f}  "
                  f"{verdict}")
        fa = [f / a_ for a_, f in a["counts"][w]]
        fb = [f / a_ for a_, f in b["counts"][w]]
        print(f"{w:<16}failed shares {sorted(set(fa))} vs {sorted(set(fb))}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        sys.exit("run from the root of the source tree (BENCHMARK.json not found)")
    bench = load_benchmark()
    if args.compare:
        with open(args.compare[0]) as f1, open(args.compare[1]) as f2:
            compare(bench, json.load(f1), json.load(f2))
        return
    workloads = [w for w in args.workloads.split(",") if w] or \
        [w["name"] for w in bench["workloads"]]
    result = run_set(bench, workloads, args.runs, args.seed_base,
                     args.seconds or bench["run_seconds"])
    if args.out:
        with open(args.out, "w") as f:
            json.dump(result, f, indent=1)
    summarize(bench, result)


if __name__ == "__main__":
    main()
