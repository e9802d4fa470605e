"""E1 — restart one server: disk vs shared memory.

Paper (§1, §6): disk recovery takes 2.5-3 hours per machine; shared
memory recovery takes 2-3 minutes per server — roughly a 60x gap.

Measured twice: for real on a scaled-down leaf, where the same code
paths show the same ordering, and through the calibrated cost model at
full 120 GB scale, where the absolute numbers land in the paper's
ranges.  The disk leg reads the backup directory through a second
manager opened with ``snapshots=False``, which offers the engine no
snapshot chain (E12's fast tier): the paper's baseline is legacy
row-format replay.
"""

from __future__ import annotations

from functools import partial

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.experiments import (
    Gate,
    build_payload,
    engine_restore,
    ratio,
    timed,
    workspace,
)
from repro.sim import paper_profile, simulate_machine_recovery
from repro.sim.hardware import HOUR, MINUTE
from repro.workloads import service_requests

ROWS = 20_000
ROWS_PER_BLOCK = 4096

GATES = (
    "disk restart (scaled)",
    "shm restart (scaled)",
    "machine disk recovery (sim)",
    "machine shm recovery (sim)",
)


def run(rows: int = ROWS) -> dict:
    with workspace() as (tmp, namespace):
        backup = DiskBackup(tmp)
        leafmap = LeafMap(rows_per_block=ROWS_PER_BLOCK)
        leafmap.get_or_create("service_requests").add_rows(service_requests(rows))
        leafmap.seal_all()
        data_bytes = sum(t.sealed_nbytes for t in leafmap)
        backup.sync_leafmap(leafmap)

        engine = RestartEngine("leaf", namespace=namespace, backup=backup)
        copy_out_s, _ = timed(lambda: engine.backup_to_shm(leafmap))
        shm_s, (shm_report, from_shm) = timed(
            partial(engine_restore, backup, namespace, ROWS_PER_BLOCK)
        )
        legacy = DiskBackup(tmp, snapshots=False)
        disk_s, (disk_report, from_disk) = timed(
            partial(engine_restore, legacy, namespace, ROWS_PER_BLOCK)
        )

    profile = paper_profile()
    sim_disk = simulate_machine_recovery(profile, "disk", "all_at_once").total_seconds
    sim_shm = simulate_machine_recovery(profile, "shm", "sequential").total_seconds
    gates = [
        Gate(
            "disk restart (scaled)",
            "2.5-3 h @ 120 GB",
            f"{disk_s * 1000:.1f} ms for {rows:,} rows",
            disk_report.method is RecoveryMethod.DISK
            and from_disk.row_count == rows,
        ),
        Gate(
            "shm restart (scaled)",
            "2-3 min @ 120 GB",
            f"{shm_s * 1000:.1f} ms for {rows:,} rows",
            shm_report.method is RecoveryMethod.SHARED_MEMORY
            and from_shm.row_count == rows,
        ),
        Gate(
            "machine disk recovery (sim)",
            "2.5-3 h",
            f"{sim_disk / HOUR:.2f} h",
            2.2 * HOUR <= sim_disk <= 3.0 * HOUR,
        ),
        Gate(
            "machine shm recovery (sim)",
            "2-3 min, ~60x faster than disk",
            f"{sim_shm / MINUTE:.2f} min ({sim_disk / sim_shm:.0f}x)",
            sim_shm <= 3 * MINUTE,
        ),
    ]
    return build_payload(
        "E1",
        gates,
        rows=rows,
        compressed_bytes=data_bytes,
        copy_out_seconds=copy_out_s,
        shm_restore_seconds=shm_s,
        disk_restore_seconds=disk_s,
        speedup=ratio(disk_s, shm_s),
        sim={
            "disk_hours": sim_disk / HOUR,
            "shm_minutes": sim_shm / MINUTE,
            "speedup": sim_disk / sim_shm,
        },
    )
