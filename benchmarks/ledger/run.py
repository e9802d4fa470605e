#!/usr/bin/env python3
"""The restart ledger: one command for the whole recovery ladder.

One run (what ``BENCHMARK.json`` names)::

    python3 benchmarks/ledger/run.py --workload upgrade_shm --seed 1 --seconds 15 --trace 0

runs one workload's restart cycles in this process, prints every metric
by name with its unit, and ends with the one-line JSON result.  With
``--trace 1`` the same cycles run with each layer's public functions
wrapped from outside and the per-layer metrics are reported instead.

Without ``--seconds`` the command is the ledger: every workload (or the
one named), ``--runs`` fresh processes each, medians and quartiles per
metric; ``--trace`` adds one traced run per workload; ``--check-repeat``
measures everything twice and compares against the bounds in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def _bootstrap() -> None:
    """Make ``repro`` and the ``ledger`` package importable, and keep
    this directory itself off ``sys.path`` (its ``trace.py`` must not
    shadow the standard library's)."""
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for extra in (str(HERE.parent), str(ROOT / "src")):
        if extra not in sys.path:
            sys.path.insert(0, extra)


# ----------------------------------------------------------------------
# One run of one workload, in this process
# ----------------------------------------------------------------------


def end_to_end(samples, disk_bytes_written: int, speed: float) -> dict[str, tuple[float, str]]:
    """The eleven end-to-end metrics; times are divided by ``speed``,
    the run's box-speed factor (1.0 reports wall time as it was)."""

    def median_ms(values: list[float]) -> float:
        return statistics.median(values) * 1e3 / speed

    def midmean_ms(values: list[float]) -> float:
        """Mean of the middle half.  A leaf's restarts alternate between
        two states of what it reads back (on ``crash_snapshot`` ~1.2 and
        ~2.0 ms, turn about); the median of an even count of those is
        the midpoint of the gap between the two modes and moved by 13 %
        from seed to seed, the midmean by 5 %."""
        ordered = sorted(values)
        cut = len(ordered) // 4
        return statistics.fmean(ordered[cut : len(ordered) - cut]) * 1e3 / speed

    return {
        "setup_s": (statistics.median(samples.setup_s) / speed, "s"),
        "restored_ms": (midmean_ms(samples.restored_s), "ms"),
        "first_answer_ms": (midmean_ms(samples.first_answer_s), "ms"),
        "serving_restored_ms": (midmean_ms(samples.serving_restored_s), "ms"),
        "persist_ms": (median_ms(samples.persist_s), "ms"),
        "query_ms_p50": (median_ms(samples.query_s), "ms"),
        "query_ms_p95": (statistics.quantiles(samples.query_s, n=20)[-1] * 1e3 / speed, "ms"),
        "query_cold_ms": (median_ms(samples.query_cold_s), "ms"),
        "ingest_rows_per_s": (samples.ingest_rows / samples.ingest_s * speed, "rows/s"),
        "restart_peak_ratio": (max(samples.peak_ratios), "ratio"),
        "disk_bytes_per_user_byte": (
            disk_bytes_written / max(1, samples.sealed_bytes_added),
            "ratio",
        ),
    }


def measure(args, workload, cycle, recorder):
    """Set up ``SETUPS`` times, run the cycles on the last machine, tear
    down.  Returns ``(samples, oracle, counters)``; ``counters`` is empty
    when the run died before the cycles finished."""
    oracle = cycle.Oracle()
    samples = cycle.Samples()
    work_root = HERE / ".work" / str(os.getpid())
    namespace = f"ledger{os.getpid()}"
    cycles = cycle.cycles_for(workload, args.seconds, args.smoke)
    machine = None
    counters: dict = {}
    try:
        slots = cycle.slots_for(workload, args.smoke)
        setup_input = [cycle.slot_batches(workload, args.seed, slot) for slot in range(slots)]
        for attempt in range(SETUPS):
            if machine is not None:
                machine.close()
            samples.probe.sample()
            started = perf_counter()
            machine = cycle.Machine(
                workload,
                args.seed,
                work_root / f"m{attempt}",
                f"{namespace}m{attempt}",
                oracle,
                smoke=args.smoke,
                recorder=recorder,
            )
            machine.setup(setup_input)
            samples.setup_s.append(perf_counter() - started)
        del setup_input
        machine.warm()
        base = machine.counters()
        started = perf_counter()
        for index in range(cycles):
            if recorder is not None:
                recorder.cycle = index
            machine.run_cycle(index, samples, digest=index in (0, cycles - 1))
        samples.measured_s = perf_counter() - started
        if recorder is not None:
            recorder.cycle = -1
        final = machine.counters()
        counters = {key: final[key] - base[key] for key in final}
        counters["bytes_per_row"] = machine.bytes_per_row()
        counters["cycles"] = cycles
    except Exception:
        oracle.fail("exception:\n" + traceback.format_exc())
    finally:
        if machine is not None:
            machine.close()
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()
        except OSError:
            pass  # another run is using it, or it never existed
    return samples, oracle, counters


def stop_resource_tracker() -> None:
    """End the one process a run starts, and wait for it.

    Creating a shared memory segment starts ``multiprocessing``'s
    resource tracker, a helper process that otherwise ends only when it
    sees this process's end of its pipe close - that is, shortly *after*
    this process has exited, where nobody waits for it.  Called last,
    when every segment is closed and unlinked (a later ``unlink`` would
    start a new tracker)."""
    module = sys.modules.get("multiprocessing.resource_tracker")
    if module is not None:
        # Closes the tracker's pipe and waits for it; nothing to do
        # when it was never started.  No public call does this.
        module._resource_tracker._stop()


def single_run(args) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        # The ledger measures this checkout's source, never a copy of
        # the package that happens to be installed.
        print(f"ledger: no program under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    from ledger import cycle

    workload = cycle.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"ledger: no workload '{args.workload}'; have {list(cycle.WORKLOADS)}", file=sys.stderr)
        return 2
    recorder = None
    if args.trace:
        from ledger import layers, trace

        recorder = trace.Recorder()
        per_span_cost = recorder.per_span_cost()
        layers.install(recorder)
    try:
        samples, oracle, counters = measure(args, workload, cycle, recorder)
    finally:
        if recorder is not None:
            recorder.uninstall()
    for reason in oracle.reasons:
        print(f"FAILED OP: {reason}", file=sys.stderr)
    if not counters:
        # The run died before it measured anything; there is no result.
        return 1

    disk_bytes = counters["snapshot_bytes_written"] + counters["legacy_bytes_written"]
    speed = samples.probe.speed_factor()
    metrics = end_to_end(samples, disk_bytes, speed)
    for name, (value, unit) in end_to_end(samples, disk_bytes, 1.0).items():
        if unit in ("s", "ms", "rows/s"):
            print(f"(wall, box speed x{speed:.3f}) {name:22s} {value:14.4f} {unit}")
    if recorder is not None:
        lookups = counters["cache_hits"] + counters["cache_misses"]
        counters.update(
            cache_hit_rate=counters["cache_hits"] / lookups if lookups else 0.0,
            cache_nbytes_peak=samples.cache_nbytes_peak,
            per_span_cost_s=per_span_cost,
            spin_ms=statistics.median(samples.probe.readings["loop"]),
            speed_factor=speed,
        )
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        trace_path = out_dir / f"trace-{workload.name}.json"
        spans = recorder.dump(
            str(trace_path),
            {"workload": workload.name, "seed": args.seed, "cycles": counters["cycles"]},
        )
        print(f"# {spans} spans written to {trace_path.relative_to(ROOT)}")
        for name, (value, unit) in metrics.items():
            print(f"(traced) {name:42s} {value:14.4f} {unit}")
        metrics = layers.derive(recorder, workload, samples, counters)
    # The probe ran first before the first set-up and last before the
    # last cycle; a box that changed speed in between is a noisy one.
    first, last = (sum(r[i] for r in samples.probe.readings.values()) for i in (0, -1))
    noisy = abs(last - first) > 0.1 * min(first, last)
    print(
        f"# workload={workload.name} seed={args.seed} cycles={counters['cycles']} "
        f"leaves={cycle.leaf_count()} measured_s={samples.measured_s:.3f} "
        f"probe_first_ms={first:.3f} probe_last_ms={last:.3f} noisy={int(noisy)} "
        f"samples: restored={len(samples.restored_s)} serving={len(samples.first_answer_s)} "
        f"query={len(samples.query_s)}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:14.4f} {unit}")
    print(f"{'failed_ops / ops_attempted':50s} {oracle.failed} / {oracle.attempted}")
    print(
        json.dumps(
            {
                "correct": oracle.failed == 0,
                "attempted": oracle.attempted,
                "failed": oracle.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0 if oracle.failed == 0 else 1


# ----------------------------------------------------------------------
# The ledger: fresh processes, medians, repeatability
# ----------------------------------------------------------------------


def child(
    workload: str, seed: int, seconds: int, trace: bool, smoke: bool, rerun_noisy: bool
) -> dict:
    """One run in a fresh process; with ``rerun_noisy``, run it once
    more when the box-speed probe moved by over a tenth across it."""
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(int(trace)),
    ] + (["--smoke"] if smoke else [])

    def once() -> dict:
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = done.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            sys.stderr.write(done.stderr)
            raise SystemExit(f"{workload} seed {seed}: run printed no result")
        result = json.loads(lines[-1])
        facts = next((line for line in lines if line.startswith("# workload=")), "")
        result["facts"] = {k: float(v) for k, v in re.findall(r"(\w+)=([\d.]+)(?=\s|$)", facts)}
        result["stderr"] = done.stderr
        return result

    result = once()
    if rerun_noisy and result["facts"].get("noisy"):
        print(f"  {workload} seed {seed}: noisy box, running again", flush=True)
        result = once()
    return result


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def measure_set(workloads: list[str], args, spec: dict, label: str) -> tuple[dict, int]:
    """``workload -> metric -> [values]`` over ``--runs`` seeds (the
    measured wall seconds ride along as ``measured_s``); plus the
    number of failed operations seen."""
    values: dict[str, dict[str, list[float]]] = {}
    failed = 0
    for workload in workloads:
        per_metric: dict[str, list[float]] = {}
        for run in range(args.runs):
            # The repeatability check measures what the driver will
            # see, and the driver does not get a second try.
            result = child(
                workload,
                args.seed + run,
                spec["run_seconds"],
                False,
                args.smoke,
                rerun_noisy=not args.check_repeat,
            )
            failed += result["failed"]
            per_metric.setdefault("measured_s", []).append(result["facts"]["measured_s"])
            if result["failed"]:
                sys.stderr.write(result["stderr"])
            for name, cell in result["metrics"].items():
                per_metric.setdefault(name, []).append(cell["value"])
            print(f"  {label} {workload} seed {args.seed + run}: "
                  f"{result['attempted']} ops, {result['failed']} failed, "
                  f"{result['facts'].get('measured_s', 0):.1f} s measured", flush=True)
        values[workload] = per_metric
    return values, failed


def print_set(values: dict, spec: dict) -> None:
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for workload, per_metric in values.items():
        print(f"\n{workload}")
        print(f"  {'metric':28s} {'median':>14s} {'q1':>14s} {'q3':>14s}  {'spread':>7s}  unit")
        for name, runs in per_metric.items():
            if name not in units:
                continue
            q1, q2, q3 = quartiles(runs)
            median = statistics.median(runs)
            print(f"  {name:28s} {median:14.4f} {q1:14.4f} {q3:14.4f}  "
                  f"{100 * (q3 - q1) / median:6.2f}%  {units.get(name, '')}")


def traced_runs(workloads: list[str], args, spec: dict, untraced: dict) -> int:
    failed = 0
    for workload in workloads:
        result = child(workload, args.seed, spec["run_seconds"], True, args.smoke, True)
        failed += result["failed"]
        print(f"\n{workload} (traced, seed {args.seed})")
        for name, cell in result["metrics"].items():
            print(f"  {name:50s} {cell['value']:14.4f} {cell['unit']}")
        # Cross-check of bench.trace_overhead_pct (an estimate from span
        # count x calibrated span cost): measured wall against wall.
        plain = statistics.median(untraced[workload]["measured_s"])
        wall = result["facts"]["measured_s"]
        print(f"  {'measured wall, traced vs untraced':50s} "
              f"{100 * (wall - plain) / plain:14.4f} %")
    return failed


def check_repeat(workloads: list[str], args, spec: dict) -> int:
    first, failed_a = measure_set(workloads, args, spec, "A")
    second, failed_b = measure_set(workloads, args, spec, "B")
    lines = [
        "# Repeatability of the restart ledger",
        "",
        f"`run.py --check-repeat --runs {args.runs} --seed {args.seed}`: every workload measured "
        f"twice (sets A and B) on the same tree, seeds {args.seed}..{args.seed + args.runs - 1}, "
        f"{spec['run_seconds']} s per run, {os.cpu_count()} CPUs.  `spread` is the distance "
        "between the first and third quartile of a set's runs over their median; `drift` is "
        "how much worse B's median is than A's (negative = better).  A row fails when a "
        "spread (other than `setup_s`'s) or the drift exceeds the metric's bound.",
        "",
        "| workload | metric | A median | B median | drift | spread A | spread B | bound | |",
        "|---|---|---:|---:|---:|---:|---:|---:|---|",
    ]
    bad = 0
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = first[workload][name], second[workload][name]
            median_a, median_b = statistics.median(a), statistics.median(b)
            drift = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                drift = -drift
            spreads = []
            for runs, median in ((a, median_a), (b, median_b)):
                q1, _, q3 = quartiles(runs)
                spreads.append((q3 - q1) / median)
            ok = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
            bad += not ok
            lines.append(
                f"| {workload} | {name} | {median_a:.4f} | {median_b:.4f} | {100 * drift:+.2f}% "
                f"| {100 * spreads[0]:.2f}% | {100 * spreads[1]:.2f}% | {100 * bound:.0f}% "
                f"| {'ok' if ok else 'FAIL'} |"
            )
    lines += [
        "",
        f"Failed operations: {failed_a} in set A, {failed_b} in set B.  "
        f"Rows outside their bound: {bad}.",
    ]
    text = "\n".join(lines) + "\n"
    print(text)
    if args.out:
        Path(args.out).write_text(text)
    return 1 if bad or failed_a or failed_b else 0


def ledger(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    workloads = [args.workload] if args.workload else names
    if args.check_repeat:
        return check_repeat(workloads, args, spec)
    values, failed = measure_set(workloads, args, spec, "run")
    print_set(values, spec)
    if args.trace:
        failed += traced_runs(workloads, args, spec, values)
    print(f"\nfailed operations: {failed}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, help="run one workload in this process, sized for this long"
    )
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1))
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per workload")
    parser.add_argument("--smoke", action="store_true", help="3 cycles, ~2 000 rows per table")
    parser.add_argument("--check-repeat", action="store_true")
    parser.add_argument("--out", help="with --check-repeat: also write the table here")
    args = parser.parse_args(argv)
    _bootstrap()
    if args.seconds is not None:
        if not args.workload:
            parser.error("--seconds needs --workload")
        try:
            return single_run(args)
        finally:
            stop_resource_tracker()
    return ledger(args)


if __name__ == "__main__":
    sys.exit(main())
