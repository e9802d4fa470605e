#!/usr/bin/env python3
"""Alternating parent/change pairs of the restart ledger, and the verdict.

    python benchmarks/pairs.py --parent ../parent --change . \\
        --workload crash_snapshot --seeds 200-209 \\
        [--watch ingest_rows_per_s,restored_ms]

``--parent`` and ``--change`` are two checkouts, for example a
``git worktree`` of the parent commit and this tree.  For each seed the
command runs ``benchmarks/ledger/run.py`` once in each tree, each in a
fresh process, alternating which tree goes first (even positions: the
parent), and prints the pair's ``--watch`` metrics (a comma list).
Every run measures for ``run_seconds`` of the change tree's
``BENCHMARK.json``.
``--workload`` takes a comma list; each workload gets its own pairs and
its own table.

Then, per end-to-end metric: each side's median with its quartiles,
change / parent, and how many pairs the change won (ties count for
neither).  The verdict column applies the small-sandbox rule for a
claimed gain: the change wins at least nine tenths of the pairs, and the
medians differ in its favour by more than the parent's interquartile
range.  A change median worse than the parent's by more than the
metric's bound is marked ``WORSE``.  When either side's interquartile
range is wider than that bound the comparison is ``unresolved``, unless
every change run reads better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    """``200-209`` -> [200, ..., 209]; ``7`` -> [7]; ``1,4,9`` -> as listed."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced ledger run in ``tree``; its final JSON line."""
    command = [
        sys.executable, "benchmarks/ledger/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, cwd=tree, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{tree}: {workload} seed {seed} printed no result")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> tuple[int, str]:
    """``(wins, verdict)`` for one metric over paired runs."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    q1, p_med, q3 = quartiles(parent)
    gain = sign * (p_med - statistics.median(change))
    if 10 * wins >= 9 * len(parent) and gain > q3 - q1:
        return wins, "GAIN"
    if -gain > bound * abs(p_med):
        return wins, "WORSE"
    spreads = [(hi - lo) / abs(mid) for lo, mid, hi in map(quartiles, (parent, change)) if mid]
    every_run_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if max(spreads, default=0.0) > bound and not every_run_better:
        return wins, "unresolved"
    return wins, "within bound"


def compare(trees: dict[str, Path], workload: str, seeds: list[int], spec: dict,
            watch: list[str]) -> bool:
    """Run and print one workload's pairs; True if the change failed more ops."""
    seconds = spec["run_seconds"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for index, seed in enumerate(seeds):
        order = ["parent", "change"] if index % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, seconds))
        parent, change = (runs[side][-1]["metrics"] for side in ("parent", "change"))
        seen = ", ".join(
            f"{name} {parent[name]['value']:.4g} -> {change[name]['value']:.4g}"
            for name in watch
        )
        print(f"{workload} seed {seed} ({order[0]} first): {seen}", flush=True)

    pairs = len(seeds)
    print(f"\n{workload}: {pairs} pairs, seeds {seeds[0]}..{seeds[-1]}, "
          f"{seconds:g} s per run")
    print(f"{'metric':26s} {'parent median [q1, q3]':>32s} {'change median [q1, q3]':>32s} "
          f"{'change/parent':>13s} {'wins':>6s}  verdict")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        parent = [run["metrics"][name]["value"] for run in runs["parent"]]
        change = [run["metrics"][name]["value"] for run in runs["change"]]
        wins, word = verdict(parent, change, metric["better"], metric["bound"])
        cells = []
        for values in (parent, change):
            q1, median, q3 = quartiles(values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        ratio = statistics.median(change) / statistics.median(parent)
        print(f"{name:26s} {cells[0]:>32s} {cells[1]:>32s} {ratio:13.3f} "
              f"{wins:>3d}/{pairs:<2d}  {word}")
    failed = {side: sum(run["failed"] for run in runs[side]) for side in runs}
    attempted = {side: sum(run["attempted"] for run in runs[side]) for side in runs}
    print(f"failed ops: parent {failed['parent']}/{attempted['parent']}, "
          f"change {failed['change']}/{attempted['change']}\n", flush=True)
    return failed["change"] > failed["parent"]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="one or a comma list")
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 200-209")
    parser.add_argument("--watch", default="query_cold_ms", metavar="METRIC[,METRIC]",
                        help="the metrics printed per pair (default: query_cold_ms)")
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    names = {metric["name"] for metric in spec["end_to_end"]}
    watch = args.watch.split(",")
    for name in watch:
        if name not in names:
            parser.error(f"--watch {name}: not an end-to-end metric of BENCHMARK.json")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    worse = [
        compare(trees, workload, args.seeds, spec, watch)
        for workload in args.workload.split(",")
    ]
    return 1 if any(worse) else 0


if __name__ == "__main__":
    sys.exit(main())
