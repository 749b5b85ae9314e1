#!/usr/bin/env python3
"""Alternating parent/change pairs of the replay benchmark, with verdicts.

    tools/perf_pairs.py --parent <edm_perfbench> --change <edm_perfbench> \\
        --workload <name> [--seed 1] [--seconds 40] [--pairs 10] [--cpu 2]

Runs `--pairs` pairs of plain-mode `edm_perfbench` runs, each pinned to one
CPU with `taskset`; the parent runs first in even pairs and the change in
odd ones.  It refuses to summarise when the two sides' fingerprints or
telemetry digests differ: a perf-only change replays the same simulation.

For each end-to-end metric of BENCHMARK.json (read, never written) it
prints the parent's median and quartiles, the change's median, the
relative difference Δ, the pairs the change won, and the verdict of the
two rules in `verdict`.  Quartiles interpolate linearly between order
statistics (`statistics.quantiles(..., method="inclusive")`).

Run the examples with `python3 -m doctest tools/perf_pairs.py`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

MANIFEST = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values):
    """Returns (q1, median, q3).

    >>> quartiles([1, 2, 3, 4, 5])
    (2.0, 3.0, 4.0)
    """
    if len(values) == 1:
        return (float(values[0]),) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """Judges one metric's pairs; returns (gain, regression, wins).

    `parent[i]` and `change[i]` are pair i's values, `better` is "higher"
    or "lower", and `bound` is the largest relative loss allowed.

    - wins: pairs in which the change is strictly better.
    - gain: the change won at least 9 in 10 pairs, and its median is
      better than the parent's by more than the parent's interquartile
      range.
    - regression: the change's median is worse than the parent's by more
      than `bound`, relative to the parent's median.

    A clear gain in throughput:

    >>> verdict([100, 101, 99, 100, 102, 98, 100, 101, 99, 100],
    ...         [110, 111, 109, 110, 112, 108, 110, 111, 109, 110],
    ...         "higher", 0.2)
    (True, False, 10)

    Eight wins in ten pairs are not enough, however large the gap:

    >>> verdict([100] * 10, [120] * 8 + [90] * 2, "higher", 0.2)
    (False, False, 8)

    Nine wins, but a median gap (1) inside the parent's spread (4):

    >>> verdict([96, 98, 100, 102, 104, 96, 98, 100, 102, 104],
    ...         [98, 100, 102, 104, 106, 98, 100, 102, 104, 95],
    ...         "higher", 0.2)
    (False, False, 9)

    A set-up time 30% longer breaks a 25% bound; 20% does not:

    >>> verdict([10] * 10, [13] * 10, "lower", 0.25)
    (False, True, 0)
    >>> verdict([10] * 10, [12] * 10, "lower", 0.25)
    (False, False, 0)
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    q1, parent_median, q3 = quartiles(parent)
    gap = sign * (statistics.median(change) - parent_median)
    gain = wins * 10 >= 9 * len(parent) and gap > q3 - q1
    regression = -gap > bound * abs(parent_median)
    return gain, regression, wins


def run_side(binary, args):
    """One pinned plain-mode run; returns its result object."""
    cmd = ["taskset", "-c", str(args.cpu), binary,
           f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", "--mode=plain"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if not report["correct"]:
        raise SystemExit(f"perf_pairs: {binary} failed: {report['failures']}")
    return report


def main():
    with open(MANIFEST) as f:
        manifest = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent edm_perfbench")
    parser.add_argument("--change", required=True, help="change edm_perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=manifest["run_seconds"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--cpu", type=int, default=0)
    args = parser.parse_args()

    names = [m["name"] for m in manifest["end_to_end"]]
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(getattr(args, side), args))
        values = " ".join(
            f"{name}={runs['parent'][-1]['metrics'][name]['value']:.5g}/"
            f"{runs['change'][-1]['metrics'][name]['value']:.5g}"
            for name in names)
        print(f"pair {i + 1}/{args.pairs} {order[0]} first, parent/change: "
              f"{values}", file=sys.stderr, flush=True)

    for key in ("fingerprint", "telemetry_digest"):
        seen = {r[key] for r in runs["parent"] + runs["change"]}
        if len(seen) != 1:
            raise SystemExit(f"perf_pairs: {key} differs between runs; the "
                             "change does not replay the same simulation")

    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"pairs={args.pairs} cpu={args.cpu}: fingerprints match")
    row = "{:<17} {:>10} {:>23} {:>10} {:>7} {:>6} {:>5} {:>10}"
    print(row.format("metric", "parent", "[q1-q3]", "change", "delta", "won",
                     "gain", "regression"))
    for metric in manifest["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name]["value"] for r in runs["parent"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        gain, regression, wins = verdict(parent, change, metric["better"],
                                         metric["bound"])
        q1, median, q3 = quartiles(parent)
        changed = statistics.median(change)
        delta = (changed - median) / median if median else 0.0
        print(row.format(name, f"{median:.5g}", f"[{q1:.5g}-{q3:.5g}]",
                         f"{changed:.5g}", f"{delta:+.1%}",
                         f"{wins}/{len(parent)}", "yes" if gain else "no",
                         "yes" if regression else "no"))


if __name__ == "__main__":
    main()
