"""E15 — parallel machine restart: worker sweep and bandwidth ceiling.

The paper restarts leaves one at a time during rollover; a *machine
event* restarts all of them at once.  E15 measures a real (scaled)
machine restarting its leaves with 1, 2, 4 and 8 thread workers, then
once more under a machine-wide in-flight budget, and checks the
simulator's claim that the speedup is linear in the worker count until
the machine's memory bandwidth saturates (min(k, mem_total / mem_copy)
— 4x with the paper profile).

The wall-clock floor needs workers that actually run in parallel:
pure-Python copies hold the GIL and a small container serializes the
workers no matter how many run (*Fast Failure Recovery for Main-Memory
DBMSs on Multicores* reports recovery per core count for this reason),
so it is enforced from ``MULTICORE`` cores up and recorded below it.
The footprint bound holds everywhere.
"""

from __future__ import annotations

import math

from repro.experiments import (
    Gate,
    build_payload,
    cpu_count,
    multicore,
    ratio,
    timed,
    workspace,
)
from repro.server.machine import Machine
from repro.shm.layout import table_segment_size
from repro.sim import paper_profile, simulate_machine_recovery
from repro.workloads import service_requests

ROWS = 32_000
LEAVES = 4
WORKERS = 4
ROWS_PER_BLOCK = 2048
WORKER_SWEEP = (1, 2, 4, 8)
#: The multi-core floor: 4 workers over 1.
SPEEDUP_FLOOR = 1.5

GATES = (
    "worker sweep 1/2/4/8, thread backend",
    "workers=4 vs workers=1, thread backend",
    "restart window under the footprint budget",
    "simulated machine-restore speedup, workers=1/2/4/8",
    "paper-scale machine: sequential vs parallel shm restart",
)


def run(
    rows: int = ROWS,
    leaves: int = LEAVES,
    workers: int = WORKERS,
    budget_bytes: int | None = None,
) -> dict:
    leaves = max(1, leaves)
    workers = max(1, workers)
    rows_per_leaf = max(1, rows // leaves)
    with workspace() as (tmp, namespace):
        machine = Machine(
            "e15",
            tmp,
            leaves_per_machine=leaves,
            namespace=namespace,
            rows_per_block=ROWS_PER_BLOCK,
            shared_tracker=True,
        )
        machine.start_all()
        for leaf in machine.leaves:
            leaf.add_rows("service_requests", service_requests(rows_per_leaf))
            leaf.leafmap.seal_all()  # measure compressed, not buffered, size
            leaf.sync_to_disk()  # pay the one-time backup sync outside the sweep
        data_bytes = machine.nbytes
        largest_segment = max(
            table_segment_size(table.name, table.blocks)
            for leaf in machine.leaves
            for table in leaf.leafmap
        )

        # One untimed restart first, so the sweep's 1-worker leg is not
        # the cold one (first-touch of segments, pools, code paths).
        sweep_failures = len(machine.restart_all().failures)
        sweep: dict[int, float] = {}
        for width in WORKER_SWEEP:
            sweep[width], report = timed(
                lambda: machine.restart_all(workers=width)
            )
            sweep_failures += len(report.failures)

        # No request is oversized at the default limit, so the footprint
        # bound is strict; under a caller's tighter budget an oversized
        # request runs alone and the bound is that request.
        budget = budget_bytes or max(largest_segment, data_bytes // 3)
        bound = max(budget, largest_segment)
        report = machine.restart_all(workers=workers, budget_bytes=budget)
        budgeted = {
            "shutdown_seconds": report.shutdown_seconds,
            "restore_seconds": report.restore_seconds,
            "restart_window_seconds": report.restart_window_seconds,
            "peak_in_flight_bytes": report.peak_in_flight_bytes,
            "budget_bytes": budget,
            "failures": [f"leaf {o.leaf_id}: {o.error}" for o in report.failures],
        }
        peak_footprint = machine.tracker.peak_total

    gates = [
        Gate(
            "worker sweep 1/2/4/8, thread backend",
            "speedup until bandwidth ceiling, no failed leaf",
            "/".join(f"{sweep[w] * 1000:.0f}" for w in WORKER_SWEEP)
            + f" ms for {leaves} leaves ({data_bytes / 1e6:.1f} MB)",
            sweep_failures == 0,
        )
    ]
    thread_speedup = ratio(sweep[1], sweep[4])
    gates.append(
        Gate(
            "workers=4 vs workers=1, thread backend",
            f">= {SPEEDUP_FLOOR}x on >= 4 cores",
            f"{thread_speedup:.2f}x on {cpu_count()} cores",
            thread_speedup >= SPEEDUP_FLOOR,
            enforced=multicore(),
        )
    )
    gates.append(
        Gate(
            "restart window under the footprint budget",
            "no failed leaf, peak in-flight <= machine-wide bound",
            f"{workers} workers: "
            f"{budgeted['restart_window_seconds'] * 1000:.0f} ms, peak "
            f"{budgeted['peak_in_flight_bytes']:,} B of {bound:,} B",
            not budgeted["failures"] and budgeted["peak_in_flight_bytes"] <= bound,
        )
    )

    profile = paper_profile()
    ceiling = profile.mem_total_gbps / profile.mem_copy_gbps
    sim_sweep = [profile.parallel_restore_speedup(w) for w in WORKER_SWEEP]
    gates.append(
        Gate(
            "simulated machine-restore speedup, workers=1/2/4/8",
            "N x until bandwidth ceiling (4x)",
            "/".join(f"{s:.0f}x" for s in sim_sweep)
            + f" via processes, {profile.parallel_restore_speedup(workers, 'thread'):.0f}x"
            " via threads",
            ceiling == 4.0
            and all(
                math.isclose(s, min(w, ceiling))
                for w, s in zip(WORKER_SWEEP, sim_sweep)
            ),
        )
    )
    # Copies scale 4x; the fixed per-leaf process overhead pays once per
    # leaf sequentially but overlaps in the parallel restart, so the
    # machine-level ratio lands between the ceiling and leaves.
    sequential = simulate_machine_recovery(profile, "shm", "sequential")
    all_at_once = simulate_machine_recovery(profile, "shm", "all_at_once")
    sim_ratio = sequential.total_seconds / all_at_once.total_seconds
    gates.append(
        Gate(
            "paper-scale machine: sequential vs parallel shm restart",
            "bounded by 4x copy ceiling",
            f"{sequential.total_seconds:.0f} s vs "
            f"{all_at_once.total_seconds:.0f} s ({sim_ratio:.1f}x)",
            profile.leaves_per_machine >= sim_ratio >= 3.5,
        )
    )
    return build_payload(
        "E15",
        gates,
        rows=rows,
        leaves=leaves,
        workers=workers,
        compressed_bytes=data_bytes,
        worker_sweep_seconds={str(w): s for w, s in sweep.items()},
        budgeted_restart=budgeted,
        peak_footprint_bytes=peak_footprint,
    )
