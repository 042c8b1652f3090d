#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload named in BENCHMARK.json once per seed, untraced, and
reports for each end-to-end metric the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread: the distance
between the quartiles as a share of the median, next to the metric's bound.

    python3 heliosbench/steady.py --seeds 1-10 --raw out.json

Run it from the repository root. --raw keeps every run's result line,
and --compare FIRST.json adds each metric's median against a first set's.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_all(bench, workloads, seeds):
    raw = {}
    for w in workloads:
        raw[w] = []
        for seed in seeds:
            cmd = bench["command"] + ["--workload", w, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.exit(f"{w} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            res["seed"], res["run_s"] = seed, round(time.time() - t0, 1)
            raw[w].append(res)
            print(f"{w} seed {seed}: {res['run_s']}s correct={res['correct']}", file=sys.stderr)
    return raw


def render(bench, raw):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    lines = []
    worst = []
    for w, runs in raw.items():
        lines.append(f"### {w}\n")
        lines.append(f"{len(runs)} runs, seeds {runs[0]['seed']}–{runs[-1]['seed']}, "
                     f"{sum(r['run_s'] for r in runs) / len(runs):.1f} s per run; "
                     f"all correct: {all(r['correct'] for r in runs)}, "
                     f"failed operations: {sum(r['failed'] for r in runs)}\n")
        lines.append("| metric | unit | median | Q1 | Q3 | spread | bound | spread/bound |")
        lines.append("|---|---|---:|---:|---:|---:|---:|---:|")
        for name, m in bounds.items():
            vals = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            worst.append((spread / m["bound"], w, name))
            lines.append(f"| {name} | {m['unit']} | {med:.4g} | {q1:.4g} | {q3:.4g} | "
                         f"{spread:.3f} | {m['bound']} | {spread / m['bound']:.2f} |")
        lines.append("")
    worst.sort(reverse=True)
    r, w, name = worst[0]
    lines.append(f"Largest spread relative to its bound: {name} on {w}, {r:.2f} of the bound.\n")
    return "\n".join(lines)


def compare(bench, first, second):
    """Second set's median against the first's, per workload and metric,
    as a share of the first median, signed so that positive is worse."""
    lines = ["| workload | metric | first median | second median | worse by | bound | within |",
             "|---|---|---:|---:|---:|---:|---|"]
    for m in bench["end_to_end"]:
        for w in first:
            a = statistics.median(r["metrics"][m["name"]]["value"] for r in first[w])
            b = statistics.median(r["metrics"][m["name"]]["value"] for r in second[w])
            worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
            lines.append(f"| {w} | {m['name']} | {a:.4g} | {b:.4g} | {worse:+.3f} | {m['bound']} | "
                         f"{'yes' if worse <= m['bound'] else 'NO'} |")
    return "\n".join(lines) + "\n"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--raw", help="write every run's result line here")
    ap.add_argument("--compare", help="a first set's --raw file: compare this set's medians against it")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    raw = run_all(bench, [w["name"] for w in bench["workloads"]], parse_seeds(args.seeds))
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump(raw, f, indent=1)
    text = render(bench, raw)
    if args.compare:
        with open(args.compare) as f:
            text += "\n" + compare(bench, json.load(f), raw)
    print(text)


if __name__ == "__main__":
    main()
