"""Command line interface: ``python -m repro <command>``.

Commands:

- ``sim-rollover``   — full-scale rollover timings and the Figure-8 view
- ``availability``   — weekly availability for a deploy cadence
- ``inspect-shm``    — examine a leaf's shared memory state (read-only)
- ``bench-restart``  — a real scaled disk-vs-shm restart on this machine
- ``bench-query``    — vectorized vs row-at-a-time query execution (E13)
- ``leaf-worker``    — run one leaf server process (the deployment unit)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from repro.cluster.dashboard import render_dashboard
from repro.sim.availability import weekly_availability
from repro.sim.hardware import HOUR, MINUTE, paper_profile
from repro.sim.rollover import simulate_rollover


def _fmt_duration(seconds: float) -> str:
    if seconds >= HOUR:
        return f"{seconds / HOUR:.1f} h"
    if seconds >= MINUTE:
        return f"{seconds / MINUTE:.1f} min"
    return f"{seconds:.1f} s"


def cmd_sim_rollover(args: argparse.Namespace) -> int:
    profile = paper_profile()
    if args.leaves_per_machine is not None:
        profile = replace(profile, leaves_per_machine=args.leaves_per_machine)
    result = simulate_rollover(
        profile, args.machines, args.strategy, args.batch_fraction
    )
    print(
        f"{result.strategy} rollover of {result.leaves_total} leaves on "
        f"{result.n_machines} machines ({result.batch_size} at a time):"
    )
    print(f"  restarts:        {_fmt_duration(result.restart_seconds)}")
    print(f"  incl. deploy sw: {_fmt_duration(result.total_seconds)}")
    print(f"  per-leaf offline: {_fmt_duration(result.per_leaf_offline_seconds)}")
    print(f"  availability:    mean {result.mean_availability:.2%}, "
          f"min {result.min_availability:.2%}")
    if args.dashboard:
        print(render_dashboard(result.dashboard, width=48, max_rows=args.dashboard))
    return 0


def cmd_availability(args: argparse.Namespace) -> int:
    report = weekly_availability(
        args.rollover_hours * HOUR, args.per_week, args.availability_during
    )
    print(f"rollovers: {args.per_week}/week x {args.rollover_hours:.1f} h")
    print(f"  fully available:        {report.fully_available_fraction:.2%}")
    print(f"  mean data availability: {report.mean_data_availability:.3%}")
    return 0


def cmd_inspect_shm(args: argparse.Namespace) -> int:
    from repro.shm.inspect import format_leaf_info, inspect_leaf

    info = inspect_leaf(args.namespace, args.leaf_id)
    print(format_leaf_info(info))
    return 0 if info.metadata_exists else 1


def finish(payload: dict, json_path: str | None = None) -> int:
    """Print every gate of ``payload``, archive it when asked, and return
    the exit code: 1 iff an *enforced* gate did not hold."""
    from repro.experiments import write_payload

    failed = False
    print("gates:")
    for gate in payload["gates"]:
        if gate["ok"]:
            verdict = "ok"
        elif gate["enforced"]:
            verdict, failed = "FAILED", True
        else:
            verdict = f"not enforced on {payload['cpu_count']} cores"
        print(f"  [{verdict}] {gate['name']}: {gate['measured']} "
              f"(claim: {gate['paper']})")
    if json_path:
        write_payload(payload, json_path)
        print(f"wrote {json_path}")
    return 1 if failed else 0


def _ms(seconds: float) -> str:
    return f"{seconds * 1000:.1f} ms"


def _print_header(p: dict) -> None:
    print(f"{p['rows']:,} rows, {p['compressed_bytes'] / 1e6:.2f} MB compressed")


def _print_e1(p: dict) -> None:
    print(f"copy to shared memory: {_ms(p['copy_out_seconds'])}")
    print(f"restore from shared memory: {_ms(p['shm_restore_seconds'])}")
    print(f"restore from disk: {_ms(p['disk_restore_seconds'])}")
    print(f"shared memory was {p['speedup']:.0f}x faster")


def _print_e15(p: dict) -> None:
    print(f"{p['leaves']} leaves, {p['workers']} workers")
    r = p["budgeted_restart"]
    print(f"parallel shutdown: {_ms(r['shutdown_seconds'])}")
    print(f"parallel restore:  {_ms(r['restore_seconds'])}")
    for failure in r["failures"]:
        print(f"{failure} FAILED")
    print(f"peak footprint:    {p['peak_footprint_bytes'] / 1e6:.2f} MB")


def _print_e17(p: dict) -> None:
    print(f"{p['rounds']} syncs x {p['rows_per_round']:,} appended rows")
    for name, written in p["sync_write_bytes"].items():
        print(f"[{name}] sync writes after base: {written / 1e6:.2f} MB "
              f"(amplification {p['write_amplification'][name]:.3f}, "
              f"{p['deltas_written'][name]} deltas, "
              f"{p['compactions'][name]} compactions)")
    seconds = p["replay_seconds"]
    print(f"legacy replay, {p['workers']} process workers: "
          f"{_ms(seconds['process'])} ({p['replay_speedup']:.2f}x vs serial "
          f"{_ms(seconds['serial'])})")


def cmd_bench_restart(args: argparse.Namespace) -> int:
    """One experiment per mode; the definitions live in ``repro.experiments``."""
    from repro.experiments import ExperimentError, e1, e12, e15, e16, e17, e18

    if args.workers is not None and (
        args.replica_tier or args.serve_while_restoring or args.disk_tier
    ):
        raise SystemExit(
            "bench-restart: --workers selects the whole-machine restart (E15); "
            "it combines only with --incremental"
        )
    try:
        if args.incremental:
            workers = e17.WORKERS if args.workers is None else args.workers
            payload = e17.run(rows=args.rows, workers=workers)
        elif args.replica_tier:
            payload = e18.run(rows=args.rows)
        elif args.serve_while_restoring:
            payload = e16.run(rows=args.rows, leaves=args.leaves)
        elif args.disk_tier:
            payload = e12.run(rows=args.rows)
        elif args.workers is not None:
            budget = int(args.budget_mb * 1_000_000) if args.budget_mb else None
            payload = e15.run(rows=args.rows, leaves=args.leaves, workers=args.workers,
                              budget_bytes=budget)
        else:
            payload = e1.run(rows=args.rows)
    except ExperimentError as exc:
        print(f"bench-restart: {exc}")
        return 1
    _print_header(payload)
    details = {"E1": _print_e1, "E15": _print_e15, "E17": _print_e17}
    if payload["experiment"] in details:
        details[payload["experiment"]](payload)
    return finish(payload, args.json)


def cmd_bench_query(args: argparse.Namespace) -> int:
    """``bench-query``: the E13 before/after — row-at-a-time vs the
    vectorized executor, cold and warm through the decoded-column cache."""
    from repro.experiments import e13

    p = e13.run(rows=args.rows, cache_mb=args.cache_mb, repeats=args.repeats)
    _print_header(p)
    buffer = p["buffer_query"]
    for q in [*p["queries"], {**buffer, "query": f"write buffer ({buffer['rows']} rows)"}]:
        print(f"{q['query']:24s} row {q['row_ms']:8.1f} ms | vectorized cold "
              f"{q['vector_cold_ms']:7.1f} ms, warm {q['vector_warm_ms']:7.1f} ms "
              f"({q['speedup']:.1f}x)")
    cache = p["cache"]
    print(f"cache: {cache['entries']} entries, {cache['nbytes'] / 1e6:.2f} MB, "
          f"hit rate {cache['hit_rate']:.1%}, {cache['refused']} refused")
    return finish(p, args.json)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast database restarts (SIGMOD 2014), reproduced",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sim-rollover", help="simulate a full-scale rollover")
    p.add_argument("--machines", type=int, default=100)
    p.add_argument("--strategy", choices=("shm", "disk"), default="shm")
    p.add_argument("--batch-fraction", type=float, default=0.02)
    p.add_argument("--leaves-per-machine", type=int, default=None)
    p.add_argument("--dashboard", type=int, default=0, metavar="ROWS",
                   help="also render the Figure-8 dashboard with ROWS rows")
    p.set_defaults(func=cmd_sim_rollover)

    p = sub.add_parser("availability", help="weekly availability for a cadence")
    p.add_argument("--rollover-hours", type=float, required=True)
    p.add_argument("--per-week", type=float, default=1.0)
    p.add_argument("--availability-during", type=float, default=0.98)
    p.set_defaults(func=cmd_availability)

    p = sub.add_parser("inspect-shm", help="examine a leaf's shared memory state")
    p.add_argument("--namespace", default="scuba")
    p.add_argument("--leaf-id", required=True)
    p.set_defaults(func=cmd_inspect_shm)

    p = sub.add_parser("bench-restart", help="real scaled disk-vs-shm restart")
    p.add_argument("--rows", type=int, default=20_000)
    p.add_argument("--workers", type=int, default=None, metavar="N",
                   help="E15: restart a whole machine's leaves N at a time "
                   "(default: single-leaf disk-vs-shm comparison, E1); with "
                   "--incremental, the replay pool width (default 4)")
    p.add_argument("--leaves", type=int, default=4,
                   help="leaves on the machine (--workers, --serve-while-restoring)")
    p.add_argument("--budget-mb", type=float, default=None,
                   help="machine-wide in-flight copy budget for --workers mode")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the mode's measurements and gates as JSON "
                   "(the BENCH_eNN.json artifact)")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--serve-while-restoring", action="store_true",
                      help="experiment E16: answer queries mid-restore via "
                      "on-demand block fault-in, vs the blocking restore")
    mode.add_argument("--replica-tier", action="store_true",
                      help="experiment E18: pipelined over-the-wire restore "
                      "from a standby replica vs the local disk rungs, "
                      "incl. serve-while-restoring over the wire")
    mode.add_argument("--disk-tier", action="store_true",
                      help="experiment E12: legacy row-format replay vs the "
                      "shm-format snapshot tier, incl. torn-file fallback")
    mode.add_argument("--incremental", action="store_true",
                      help="experiment E17: incremental delta-chain sync "
                      "write bytes vs full rewrite, across a restart, plus "
                      "serial vs parallel and survivor-proportional replay")
    p.set_defaults(func=cmd_bench_restart)

    p = sub.add_parser(
        "bench-query", help="vectorized vs row-at-a-time query execution (E13)"
    )
    p.add_argument("--rows", type=int, default=50_000)
    p.add_argument("--cache-mb", type=int, default=64,
                   help="decoded-column cache capacity in MiB")
    p.add_argument("--repeats", type=int, default=3,
                   help="timing repeats (best-of)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="also write the measurements and gates as JSON")
    p.set_defaults(func=cmd_bench_query)

    sub.add_parser(
        "leaf-worker",
        help="run a leaf server worker (args forwarded; see "
        "repro.server.process_worker)",
        add_help=False,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "leaf-worker":
        from repro.server.process_worker import main as worker_main

        return worker_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
