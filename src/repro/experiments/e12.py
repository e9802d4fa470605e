"""E12 — future work (§6): use the shared memory layout as the disk format.

Paper: "One large overhead in Scuba's disk recovery is translating from
the disk format to the heap memory format. [...] We are planning to use
the shared memory format described in this paper as the disk format,
instead.  We expect that the much simpler translation to heap memory
format will speed up disk recovery significantly."

Measured for real, end to end through the restart engine's recovery
ladder: the same synced leaf restored via (a) legacy row-format replay
(through a second manager on the directory, opened with
``snapshots=False``) and (b) the shm-format snapshot tier, plus
the torn-snapshot fallback path and the cost model's 120 GB projection.
"""

from __future__ import annotations

from functools import partial

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod
from repro.disk.backup import DiskBackup
from repro.experiments import (
    Gate,
    build_payload,
    engine_restore,
    ratio,
    require,
    timed,
    workspace,
)
from repro.sim import paper_profile
from repro.workloads import ads_revenue

ROWS = 25_000
ROWS_PER_BLOCK = 4096
REPEATS = 3
#: The acceptance floor: snapshot tier over legacy replay.
SPEEDUP_FLOOR = 3.0

GATES = (
    "disk recovery, legacy row format (scaled)",
    "disk recovery, shm-format snapshot tier (scaled)",
    "snapshot-tier speedup over legacy replay",
    "torn snapshot -> legacy fallback",
    "per-leaf disk restart, snapshot tier (sim)",
)


def run(rows: int = ROWS) -> dict:
    with workspace() as (tmp, namespace):
        backup = DiskBackup(tmp)
        leafmap = LeafMap(rows_per_block=ROWS_PER_BLOCK)
        leafmap.get_or_create("ads_revenue").add_rows(ads_revenue(rows))
        leafmap.seal_all()
        data_bytes = sum(t.sealed_nbytes for t in leafmap)
        backup.sync_leafmap(leafmap)  # sealed buffers -> snapshots are fresh
        require(backup.snapshots_ready(), "E12: the synced snapshots are not fresh")
        expected = leafmap.snapshot_rows()

        restore = partial(engine_restore, backup, namespace, ROWS_PER_BLOCK)
        legacy = DiskBackup(tmp, snapshots=False)
        legacy_s, (legacy_report, _) = timed(
            partial(engine_restore, legacy, namespace, ROWS_PER_BLOCK), REPEATS
        )
        snapshot_s, (snapshot_report, fast) = timed(restore, REPEATS)
        snapshot_identical = fast.snapshot_rows() == expected

        # Tear one snapshot file: the ladder must route down to legacy
        # replay and recover the identical rows — a torn snapshot costs
        # only time.
        victim = backup.snapshot_path("ads_revenue")
        victim.write_bytes(victim.read_bytes()[:128])
        torn_s, (torn_report, torn) = timed(restore)
        torn_identical = torn.snapshot_rows() == expected

    speedup = ratio(legacy_s, snapshot_s)
    profile = paper_profile()
    sim_legacy = profile.disk_restart_seconds(1)
    sim_snapshot = profile.disk_snapshot_restart_seconds(1)
    gates = [
        Gate(
            "disk recovery, legacy row format (scaled)",
            "slow (translation-bound)",
            f"{legacy_s * 1000:.1f} ms",
            legacy_report.method is RecoveryMethod.DISK
            and legacy_report.rows == rows,
        ),
        Gate(
            "disk recovery, shm-format snapshot tier (scaled)",
            "near copy speed, identical rows",
            f"{snapshot_s * 1000:.1f} ms",
            snapshot_report.method is RecoveryMethod.DISK_SNAPSHOT
            and snapshot_report.rows == rows
            and snapshot_identical,
        ),
        Gate(
            "snapshot-tier speedup over legacy replay",
            f"'significantly' faster (>= {SPEEDUP_FLOOR:.0f}x)",
            f"{speedup:.0f}x",
            speedup >= SPEEDUP_FLOOR,
        ),
        Gate(
            "torn snapshot -> legacy fallback",
            "identical rows",
            ("identical" if torn_identical else "DIVERGED")
            + f" in {torn_s * 1000:.1f} ms",
            torn_report.method is RecoveryMethod.DISK
            and torn_report.fell_back_to_legacy
            and torn_identical,
        ),
        Gate(
            "per-leaf disk restart, snapshot tier (sim)",
            "significantly faster (under half)",
            f"{sim_legacy / 60:.1f} min -> {sim_snapshot / 60:.1f} min",
            sim_snapshot < sim_legacy / 2,
        ),
    ]
    return build_payload(
        "E12",
        gates,
        rows=rows,
        compressed_bytes=data_bytes,
        restore_seconds={
            "legacy": legacy_s,
            "snapshot": snapshot_s,
            "torn_fallback": torn_s,
        },
        speedup=speedup,
        sim={"legacy_seconds": sim_legacy, "snapshot_seconds": sim_snapshot},
    )
