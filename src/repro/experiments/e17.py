"""E17 — incremental delta snapshots and parallel legacy replay.

Two perf claims ride on the incremental write path:

1. **Sync write bytes drop >= 5x** on an append-mostly workload once
   ``DiskBackup`` appends per-generation deltas instead of rewriting the
   whole table at every sync point.  Bytes written are deterministic, so
   the floor is enforced everywhere — and again on a *restart leg*
   (crash and ``DISK_SNAPSHOT`` restore partway through the rounds, fresh
   ``DiskBackup`` managers after it): the chain is keyed on content keys
   in the manifest, so the restarted process extends it instead of
   paying one whole-table base.
2. **Legacy replay >= 2x with 4 process workers** when the row-replay
   rung fans chunk decoding across a worker pool.  Wall-clock speedup
   needs real cores — pure-Python decode holds the GIL — so the floor is
   enforced from ``MULTICORE`` cores up; the measured ratio is recorded
   either way and the hardware model's claim is checked unconditionally.

The log is append-only and expiry is a count in the manifest, so an old
leaf's log is mostly dead rows: replay reads every chunk header and CRC
but decodes only chunks that still hold live rows, and with about a
quarter of the log alive it must cost under half of replaying all of it.
Both sides of that ratio are tens of milliseconds, so they are timed in
alternation (the whole log is a copy of the directory taken before the
trim) and box drift lands on both.

Digest identity across {full, incremental, compacted} snapshots x
{chain, serial, process pool} recovery is the correctness spine: every
route must rebuild bit-identical rows.
"""

from __future__ import annotations

import math
import shutil
from functools import partial
from itertools import islice
from pathlib import Path

from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.disk.recovery import recover_leafmap
from repro.disk.replay import replay_leafmap
from repro.errors import RecoveryError
from repro.experiments import (
    Gate,
    build_payload,
    cpu_count,
    digest,
    multicore,
    ratio,
    timed,
    workspace,
)
from repro.sim import paper_profile
from repro.workloads import service_requests

#: Base rows; each append round adds a sixteenth of that.
ROWS = 8_000
#: Seven append rounds keeps the default 8-link chain from compacting
#: inside the measurement window, so the steady-state bytes compare pure
#: delta appends against pure full rewrites.
ROUNDS = 7
WORKERS = 4
#: The restart leg crashes after this many of the append rounds.
RESTART_AFTER = 3
ROWS_PER_BLOCK = 1024
#: The legacy-only legs use small blocks so the log has many chunks.
LOG_ROWS_PER_BLOCK = 256
REPEATS = 3
#: Alternating whole-log / trimmed-log replays behind the survivor gate.
SURVIVOR_PAIRS = 5

WRITE_REDUCTION_FLOOR = 5.0
REPLAY_SPEEDUP_FLOOR = 2.0
SURVIVOR_TIME_CEILING = 0.5
SURVIVOR_LIVE_RANGE = (0.15, 0.30)

#: ``full`` keeps a one-link chain, so every snapshot point rewrites the
#: table as one base (each counted as a compaction).
FLAVOURS = {
    "full": {"max_chain_links": 1},
    "incremental": {},
    "compacted": {"max_chain_links": 2},
}

GATES = (
    "sync write bytes over the append rounds",
    "incremental write amplification (bytes / live sealed bytes)",
    "compactions: 2-link chain / default chain; deltas written",
    "sync write bytes with a crash + DISK_SNAPSHOT restore mid-rounds",
    "durable publishes per leaf sync point",
    "recovery digest identity",
    "legacy replay, process pool vs serial",
    "serial legacy replay, a quarter of the log alive vs all of it",
    "legacy-only log: serial, pooled and survivor replays",
    "simulated sync-write reduction / replay speedup",
)


def _sync(leafmap: LeafMap, backups: dict[str, DiskBackup]) -> None:
    leafmap.seal_all()
    for backup in backups.values():
        backup.sync_leafmap(leafmap)


def _recover(recover, rows_per_block: int = ROWS_PER_BLOCK, repeats: int = 1):
    """Run ``recover(leafmap)`` on a fresh leaf map, ``repeats`` times:
    (best seconds, its row count, the digests of what it rebuilt)."""
    best, digests = float("inf"), set()
    for _ in range(repeats):
        leafmap = LeafMap(rows_per_block=rows_per_block)
        seconds, count = timed(lambda: recover(leafmap))
        best = min(best, seconds)
        digests.add(digest(leafmap))
    return best, count, digests


def _from_chain(backup: DiskBackup, namespace: str):
    """Snapshot-chain recovery as a process that never wrote these files
    sees it: a restart through a fresh manager on the same directory,
    which must land on ``DISK_SNAPSHOT``."""

    def restore(leafmap: LeafMap) -> int:
        engine = RestartEngine("e17", namespace=namespace, backup=DiskBackup(backup.directory))
        report = engine.restore(leafmap)
        if report.method is not RecoveryMethod.DISK_SNAPSHOT:
            raise RecoveryError(f"chain restore fell: {report.failure_reason}")
        return report.rows

    return restore


def _synced_rounds(
    root: Path, flavours, rows: int, per_round: int, namespace: str, restart_after=None
):
    """One leaf map appended to for ``ROUNDS`` rounds, synced in lockstep to
    one backup per flavour; returns it, the backups, each flavour's
    steady-state bytes / bases / deltas / manifests (after the base
    sync), and whether every digest check held.

    With ``restart_after`` the process crashes after that many rounds:
    the table comes back through ``DISK_SNAPSHOT`` from the incremental
    chain and every flavour carries on under a manager that never wrote
    a byte of what is on disk; the totals then span both processes.
    """

    def managers():
        return {name: DiskBackup(root / name, **FLAVOURS[name]) for name in flavours}

    backups = managers()
    leafmap = LeafMap(rows_per_block=ROWS_PER_BLOCK)
    table = leafmap.get_or_create("service_requests")
    source = iter(service_requests(rows + ROUNDS * per_round))
    table.add_rows(islice(source, rows))
    _sync(leafmap, backups)
    totals = {
        name: {
            "bytes": -b.stats.snapshot_bytes_written,
            "bases": -b.stats.bases_written,
            "deltas": 0,
            "manifests": -b.stats.manifests_published,
        }
        for name, b in backups.items()
    }

    def settle():
        for name, b in backups.items():
            totals[name]["bytes"] += b.stats.snapshot_bytes_written
            totals[name]["bases"] += b.stats.bases_written
            totals[name]["deltas"] += b.stats.deltas_written
            totals[name]["manifests"] += b.stats.manifests_published

    identical = True
    for round_index in range(ROUNDS):
        if round_index == restart_after:
            settle()
            before = digest(leafmap)
            backups = managers()  # the next process
            leafmap = LeafMap(rows_per_block=ROWS_PER_BLOCK)
            _from_chain(backups["incremental"], namespace)(leafmap)
            identical = digest(leafmap) == before
            table = leafmap.get_table("service_requests")
        # Append-mostly: each sync point seals only the new rows, so the
        # delta chain writes a small fraction of the table while the
        # full-rewrite regime pays the whole table every time.
        table.add_rows(islice(source, per_round))
        _sync(leafmap, backups)
    settle()
    return leafmap, backups, totals, identical


def _replays(backup: DiskBackup, workers: int) -> dict:
    """The legacy replay routes: serial, and fanned over the pool."""
    return {
        "serial": partial(recover_leafmap, backup),
        "process": partial(replay_leafmap, backup, workers=workers),
    }


def _legacy_log(directory: Path, batches):
    """A legacy-only backup (no snapshots) synced after every batch."""
    backup = DiskBackup(directory, snapshots=False)
    leafmap = LeafMap(rows_per_block=LOG_ROWS_PER_BLOCK)
    table = leafmap.get_or_create("service_requests")
    source = iter(service_requests(sum(batches)))
    for batch in batches:
        table.add_rows(islice(source, batch))
        _sync(leafmap, {"legacy": backup})
    return backup, leafmap, table


def run(rows: int = ROWS, workers: int = WORKERS) -> dict:
    workers = max(1, workers)
    per_round = max(256, rows // 16)
    rounds = [per_round] * ROUNDS
    with workspace() as (tmp, namespace):
        leafmap, backups, totals, _ = _synced_rounds(
            tmp / "lockstep", FLAVOURS, rows, per_round, namespace
        )
        steady = {name: flavour["bytes"] for name, flavour in totals.items()}
        manifests = {flavour["manifests"] for flavour in totals.values()}
        data_bytes = leafmap.get_table("service_requests").sealed_nbytes
        stats = {name: b.stats for name, b in backups.items()}

        expected = {digest(leafmap)}
        routes = {
            f"{name}:{route}": _recover(recover)[2]
            for name, backup in backups.items()
            for route, recover in {
                "chain": _from_chain(backup, namespace),
                **_replays(backup, workers),
            }.items()
        }
        diverged = [route for route, digests in routes.items() if digests != expected]

        # The same rounds with a crash in the middle: what two processes
        # wrote must restore to what the second one holds.
        restarted, restart_backups, totals, identical = _synced_rounds(
            tmp / "restart", ("full", "incremental"), rows, per_round, namespace, RESTART_AFTER
        )
        restart_leg = {
            "restart_after_round": RESTART_AFTER,
            "write_reduction": ratio(
                totals["full"]["bytes"], totals["incremental"]["bytes"]
            ),
            "digests_identical": identical
            and all(
                _recover(_from_chain(b, namespace))[2] == {digest(restarted)}
                for b in restart_backups.values()
            ),
            **{
                f"{name}_{key}": value
                for name, flavour in totals.items()
                for key, value in flavour.items()
            },
        }

        # A legacy-only log, the big batch last: replayed whole serially
        # and on the pool, then after size-limit drops (oldest block
        # first) down to a quarter, serially against a copy of the whole.
        backup, log_map, table = _legacy_log(tmp / "legacy", (*rounds, rows))
        log_rows = table.row_count
        replay = {
            name: _recover(recover, LOG_ROWS_PER_BLOCK, REPEATS)
            for name, recover in _replays(backup, workers).items()
        }
        log_identical = all(
            count == log_rows and digests == {digest(log_map)}
            for _, count, digests in replay.values()
        )
        whole = DiskBackup(
            shutil.copytree(backup.directory, tmp / "legacy-whole"), snapshots=False
        )
        table.expire(max_bytes=table.sealed_nbytes // 4)
        backup.sync_leafmap(log_map)
        whole_s = trimmed_s = math.inf
        for _ in range(SURVIVOR_PAIRS):
            seconds, _, _ = _recover(partial(recover_leafmap, whole), LOG_ROWS_PER_BLOCK)
            whole_s = min(whole_s, seconds)
            seconds, live_rows, digests = _recover(
                partial(recover_leafmap, backup), LOG_ROWS_PER_BLOCK
            )
            trimmed_s = min(trimmed_s, seconds)
            log_identical = log_identical and digests == {digest(log_map)}

    reduction = ratio(steady["full"], steady["incremental"])
    amplification = stats["incremental"].write_amplification
    replay_seconds = {name: seconds for name, (seconds, _, _) in replay.items()}
    full_s = replay_seconds["serial"]
    replay_speedup = ratio(full_s, replay_seconds["process"])
    live_fraction = live_rows / log_rows
    time_vs_full = ratio(trimmed_s, whole_s)
    profile = paper_profile()
    sim_reduction = profile.incremental_sync_reduction()
    sim_process = profile.parallel_replay_speedup(WORKERS)
    translate_s = profile.translate_seconds(profile.data_bytes_per_leaf)
    gates = [
        Gate(
            "sync write bytes over the append rounds",
            f">= {WRITE_REDUCTION_FLOOR:.0f}x fewer than full rewrite "
            f"over {ROUNDS} rounds",
            f"{steady['full']} B full vs {steady['incremental']} B "
            f"incremental ({reduction:.1f}x)",
            reduction >= WRITE_REDUCTION_FLOOR,
        ),
        Gate(
            "incremental write amplification (bytes / live sealed bytes)",
            "< 1.0 (full-rewrite floor)",
            f"{amplification:.3f}" if amplification is not None else "none",
            amplification is not None and amplification < 1.0,
        ),
        # The tight 2-link chain must have folded at least once and the
        # default chain must not have — compaction cost stays out of the
        # steady-state comparison above.
        Gate(
            "compactions: 2-link chain / default chain; deltas written",
            f">= 1 / 0; {ROUNDS} deltas",
            f"{stats['compacted'].compactions} / "
            f"{stats['incremental'].compactions}; "
            f"{stats['incremental'].deltas_written} deltas",
            stats["compacted"].compactions >= 1
            and stats["incremental"].compactions == 0
            and stats["incremental"].deltas_written == ROUNDS,
        ),
        Gate(
            "sync write bytes with a crash + DISK_SNAPSHOT restore mid-rounds",
            f">= {WRITE_REDUCTION_FLOOR:.0f}x fewer than full rewrite, 0 bases, "
            f"restart after round {RESTART_AFTER} of {ROUNDS}",
            f"{restart_leg['full_bytes']} B full vs "
            f"{restart_leg['incremental_bytes']} B incremental "
            f"({restart_leg['write_reduction']:.1f}x), "
            f"{restart_leg['incremental_bases']} bases / "
            f"{restart_leg['incremental_deltas']} deltas",
            restart_leg["write_reduction"] >= WRITE_REDUCTION_FLOOR
            and restart_leg["incremental_bases"] == 0
            and restart_leg["incremental_deltas"] == ROUNDS
            and restart_leg["full_bases"] == ROUNDS
            and restart_leg["digests_identical"],
        ),
        # A count, so exact on any box; the fsyncs behind each publish
        # (2 x tables + 3) are pinned by tests/test_disk_sync.py.
        Gate(
            "durable publishes per leaf sync point",
            "1 manifest",
            f"{sorted(manifests)} manifests over {ROUNDS} sync points",
            manifests == {ROUNDS},
        ),
        Gate(
            "recovery digest identity",
            "identical on every route",
            f"{len(routes)} routes x {rows + ROUNDS * per_round} rows, "
            + (f"DIVERGED: {', '.join(diverged)}" if diverged else "all identical"),
            not diverged,
        ),
        Gate(
            "legacy replay, process pool vs serial",
            f">= {REPLAY_SPEEDUP_FLOOR:.0f}x with {WORKERS} workers on >= 4 cores",
            f"{full_s * 1000:.0f} ms vs {replay_seconds['process'] * 1000:.0f} ms "
            f"({replay_speedup:.2f}x with {workers} workers on "
            f"{cpu_count()} cores)",
            replay_speedup >= REPLAY_SPEEDUP_FLOOR,
            enforced=multicore(workers),
        ),
        Gate(
            "serial legacy replay, a quarter of the log alive vs all of it",
            f"< {SURVIVOR_TIME_CEILING}x the time, "
            f"{SURVIVOR_LIVE_RANGE[0]:.0%}-{SURVIVOR_LIVE_RANGE[1]:.0%} alive",
            f"{trimmed_s * 1000:.0f} ms ({ratio(live_rows, trimmed_s):,.0f} "
            f"rows/s) vs {whole_s * 1000:.0f} ms "
            f"({ratio(log_rows, whole_s):,.0f} rows/s), {time_vs_full:.2f}x "
            f"with {live_fraction:.0%} alive, best of {SURVIVOR_PAIRS} "
            f"alternating pairs",
            time_vs_full < SURVIVOR_TIME_CEILING
            and SURVIVOR_LIVE_RANGE[0] < live_fraction < SURVIVOR_LIVE_RANGE[1],
        ),
        Gate(
            "legacy-only log: serial, pooled and survivor replays",
            "identical rows, every logged row counted",
            "identical" if log_identical else "DIVERGED",
            log_identical,
        ),
        # The hardware model's claims hold regardless of host cores:
        # more workers than translate cores buys nothing extra.
        Gate(
            "simulated sync-write reduction / replay speedup",
            f">= {WRITE_REDUCTION_FLOOR:.0f}x bytes, "
            f">= {REPLAY_SPEEDUP_FLOOR:.0f}x replay with {WORKERS} workers",
            f"{sim_reduction:.1f}x bytes, {sim_process:.2f}x replay "
            f"({translate_s / sim_process / 60:.1f} min vs "
            f"{translate_s / 60:.1f} min serial)",
            sim_reduction >= WRITE_REDUCTION_FLOOR
            and sim_process >= REPLAY_SPEEDUP_FLOOR
            and math.isclose(profile.parallel_replay_speedup(2 * WORKERS), sim_process),
        ),
    ]
    return build_payload(
        "E17",
        gates,
        rows=rows + ROUNDS * per_round,
        rounds=ROUNDS,
        rows_per_round=per_round,
        compressed_bytes=data_bytes,
        workers=workers,
        sync_write_bytes=steady,
        write_reduction=reduction,
        write_amplification={
            name: s.write_amplification for name, s in stats.items()
        },
        compactions={name: s.compactions for name, s in stats.items()},
        deltas_written={name: s.deltas_written for name, s in stats.items()},
        skipped_unchanged=stats["incremental"].skipped_unchanged,
        restart_leg=restart_leg,
        digest_routes=sorted(routes),
        diverged_routes=diverged,
        replay_seconds=replay_seconds,
        replay_speedup=replay_speedup,
        serial_replay_rows_per_s=ratio(log_rows, full_s),
        log_live_fraction=live_fraction,
        trimmed_replay={
            "seconds": trimmed_s,
            "whole_log_seconds": whole_s,
            "rows_per_s": ratio(live_rows, trimmed_s),
            "time_vs_full_log": time_vs_full,
        },
        sim={
            "sync_write_reduction": sim_reduction,
            "replay_speedup_process": sim_process,
        },
    )
