"""E17: incremental delta snapshots and parallel legacy replay.

Two perf claims ride on the ISSUE-9 write path:

1. **Sync write bytes drop >= 5x** on an append-mostly workload once
   ``DiskBackup`` appends per-generation deltas instead of rewriting the
   whole table at every sync point.  Bytes written are deterministic, so
   the floor is asserted unconditionally — and again on a *restart leg*
   (crash and ``DISK_SNAPSHOT`` restore halfway through the rounds, a
   fresh ``DiskBackup`` after it): the chain is keyed on content keys in
   the manifest, so the restarted process extends it instead of paying
   one whole-table base.
2. **Legacy replay >= 2x with 4 workers** when the row-replay rung fans
   chunk decoding across a worker pool.  Wall-clock speedup needs real
   cores — pure-Python decode holds the GIL — so the floor is gated on
   ``os.cpu_count() >= 4`` (the E15 convention); measured numbers are
   recorded either way, and the hardware model's claim is asserted
   unconditionally.

Digest identity across {full, incremental, compacted} snapshots x
{chain, serial, parallel} recovery x {thread, process} backends is the
correctness spine: every route must rebuild bit-identical rows.

Set ``BENCH_E17_JSON=<path>`` to dump the measured numbers as JSON (CI
uploads it as an artifact); each test refreshes the file with everything
collected so far.
"""

from __future__ import annotations

import os
import time
from itertools import islice

import pytest

from _payload import dump_artifact
from repro.columnstore.leafmap import LeafMap
from repro.disk.backup import DiskBackup
from repro.disk.recovery import recover_leafmap, recover_leafmap_snapshots
from repro.disk.replay import replay_leafmap
from repro.sim import paper_profile
from repro.util.checksum import rows_digest
from repro.util.clock import ManualClock
from repro.workloads import service_requests

BASE_ROWS = 8_000
#: Seven append rounds keeps the default 8-link chain from compacting
#: inside the measurement window, so the steady-state bytes compare pure
#: delta appends against pure full rewrites.
ROUNDS = 7
ROWS_PER_ROUND = 500
WORKERS = 4
#: The restart leg crashes after this many of the append rounds.
RESTART_AFTER = 3

RESULTS: dict = {}


def _dump_artifact() -> None:
    dump_artifact("E17", **RESULTS)


def build_corpus(tmp_path, clock):
    """One leafmap synced in lockstep to three backup flavours."""
    backups = {
        "full": DiskBackup(tmp_path / "full", incremental=False),
        "incremental": DiskBackup(tmp_path / "incremental"),
        "compacted": DiskBackup(tmp_path / "compacted", max_chain_links=2),
    }
    leafmap = LeafMap(clock=clock, rows_per_block=1024)
    table = leafmap.get_or_create("service_requests")
    rows = service_requests(BASE_ROWS + ROUNDS * ROWS_PER_ROUND)
    table.add_rows(islice(rows, BASE_ROWS))
    leafmap.seal_all()
    for backup in backups.values():
        backup.sync_leafmap(leafmap)
    base_bytes = {
        name: backup.stats.snapshot_bytes_written
        for name, backup in backups.items()
    }
    for _ in range(ROUNDS):
        table.add_rows(islice(rows, ROWS_PER_ROUND))
        leafmap.seal_all()
        for backup in backups.values():
            backup.sync_leafmap(leafmap)
    steady_bytes = {
        name: backup.stats.snapshot_bytes_written - base_bytes[name]
        for name, backup in backups.items()
    }
    return leafmap, backups, steady_bytes


def build_restart_leg(tmp_path, clock):
    """The same rounds with a crash after round ``RESTART_AFTER``.

    The table comes back through ``DISK_SNAPSHOT`` from the incremental
    chain, and both flavours carry on under managers that never wrote a
    byte of what is on disk.  Returns the leaf map, the second-process
    managers, and per flavour the steady-state bytes / bases / deltas
    summed over both processes.
    """
    options = {"full": {"incremental": False}, "incremental": {}}

    def managers():
        return {
            name: DiskBackup(tmp_path / f"restart-{name}", **kwargs)
            for name, kwargs in options.items()
        }

    backups = managers()
    leafmap = LeafMap(clock=clock, rows_per_block=1024)
    table = leafmap.get_or_create("service_requests")
    rows = service_requests(BASE_ROWS + ROUNDS * ROWS_PER_ROUND)
    table.add_rows(islice(rows, BASE_ROWS))
    leafmap.seal_all()
    for backup in backups.values():
        backup.sync_leafmap(leafmap)
    totals = {
        name: {
            "bytes": -backup.stats.snapshot_bytes_written,
            "bases": -backup.stats.bases_written,
            "deltas": 0,
        }
        for name, backup in backups.items()
    }

    def settle():
        for name, backup in backups.items():
            totals[name]["bytes"] += backup.stats.snapshot_bytes_written
            totals[name]["bases"] += backup.stats.bases_written
            totals[name]["deltas"] += backup.stats.deltas_written

    for round_index in range(ROUNDS):
        if round_index == RESTART_AFTER:
            settle()
            before = rows_digest(leafmap.snapshot_rows())
            backups = managers()  # the next process
            leafmap = LeafMap(clock=clock, rows_per_block=1024)
            recover_leafmap_snapshots(backups["incremental"], leafmap)
            assert rows_digest(leafmap.snapshot_rows()) == before
            table = leafmap.get_table("service_requests")
        table.add_rows(islice(rows, ROWS_PER_ROUND))
        leafmap.seal_all()
        for backup in backups.values():
            backup.sync_leafmap(leafmap)
    settle()
    return leafmap, backups, totals


class TestE17IncrementalSnapshots:
    def test_append_mostly_sync_writes_drop_5x(self, tmp_path, record_result):
        clock = ManualClock(0.0)
        _, backups, steady = build_corpus(tmp_path, clock)
        reduction = steady["full"] / steady["incremental"]
        amplification = backups["incremental"].stats.write_amplification
        record_result(
            "E17",
            f"sync write bytes over {ROUNDS} append rounds",
            ">= 5x fewer than full rewrite",
            f"{steady['full']} B full vs {steady['incremental']} B "
            f"incremental ({reduction:.1f}x)",
        )
        record_result(
            "E17",
            "incremental write amplification (bytes / live sealed bytes)",
            "< 1.0 (full-rewrite floor)",
            f"{amplification:.3f}",
        )
        assert reduction >= 5.0, (
            f"incremental sync only cut write bytes {reduction:.1f}x "
            f"({steady['incremental']} B vs {steady['full']} B full rewrite)"
        )
        assert amplification is not None and amplification < 1.0
        # The tight 2-link chain must have folded at least once, and the
        # default chain must not have — compaction cost stays out of the
        # steady-state comparison above.
        assert backups["compacted"].stats.compactions >= 1
        assert backups["incremental"].stats.compactions == 0
        assert backups["incremental"].stats.deltas_written == ROUNDS
        RESULTS["sync_write_bytes"] = dict(steady)
        RESULTS["write_reduction"] = reduction
        RESULTS["write_amplification"] = amplification
        RESULTS["compactions"] = {
            name: b.stats.compactions for name, b in backups.items()
        }
        _dump_artifact()

    def test_write_reduction_holds_across_a_restart(self, tmp_path, record_result):
        """The >= 5x gate with a crash in the middle: a restarted leaf
        re-joins its own chain, so the restart costs no base."""
        clock = ManualClock(0.0)
        leafmap, backups, totals = build_restart_leg(tmp_path, clock)
        reduction = totals["full"]["bytes"] / totals["incremental"]["bytes"]
        record_result(
            "E17",
            f"sync write bytes over {ROUNDS} append rounds, crash + "
            f"DISK_SNAPSHOT restore after round {RESTART_AFTER}",
            ">= 5x fewer than full rewrite, 0 bases",
            f"{totals['full']['bytes']} B full vs "
            f"{totals['incremental']['bytes']} B incremental "
            f"({reduction:.1f}x), {totals['incremental']['bases']} bases / "
            f"{totals['incremental']['deltas']} deltas",
        )
        assert reduction >= 5.0, (
            f"across a restart incremental sync only cut write bytes "
            f"{reduction:.1f}x ({totals['incremental']})"
        )
        assert totals["incremental"]["bases"] == 0
        assert totals["incremental"]["deltas"] == ROUNDS
        assert totals["full"]["bases"] == ROUNDS
        # What two processes wrote restores to what the second one holds.
        expected = rows_digest(leafmap.snapshot_rows())
        for name, backup in backups.items():
            chained = LeafMap(clock=clock, rows_per_block=1024)
            recover_leafmap_snapshots(DiskBackup(backup.directory), chained)
            assert rows_digest(chained.snapshot_rows()) == expected, name
        RESULTS["restart_leg"] = {
            "restart_after_round": RESTART_AFTER,
            "write_reduction": reduction,
            **{
                f"{name}_{key}": value
                for name, flavour in totals.items()
                for key, value in flavour.items()
            },
        }
        _dump_artifact()

    def test_digests_identical_across_every_route(self, tmp_path, record_result):
        """{full, incremental, compacted} x {chain, serial legacy,
        parallel legacy} x {thread, process} all rebuild the same rows."""
        clock = ManualClock(0.0)
        leafmap, backups, _ = build_corpus(tmp_path, clock)
        expected = rows_digest(leafmap.snapshot_rows())
        routes = 0
        for name, backup in backups.items():
            chained = LeafMap(clock=clock, rows_per_block=1024)
            recover_leafmap_snapshots(DiskBackup(backup.directory), chained)
            assert rows_digest(chained.snapshot_rows()) == expected, (
                f"{name}: chain recovery diverged"
            )
            serial = LeafMap(clock=clock, rows_per_block=1024)
            recover_leafmap(backup, serial)
            assert rows_digest(serial.snapshot_rows()) == expected, (
                f"{name}: serial legacy replay diverged"
            )
            routes += 2
            for backend in ("thread", "process"):
                parallel = LeafMap(clock=clock, rows_per_block=1024)
                replay_leafmap(
                    backup, parallel, workers=WORKERS, backend=backend
                )
                assert rows_digest(parallel.snapshot_rows()) == expected, (
                    f"{name}: parallel replay ({backend}) diverged"
                )
                routes += 1
        record_result(
            "E17",
            "recovery digest identity",
            "identical on every route",
            f"{routes} routes x {BASE_ROWS + ROUNDS * ROWS_PER_ROUND} "
            "rows, all identical",
        )
        RESULTS["digest_routes"] = routes
        RESULTS["digests_identical"] = True
        _dump_artifact()

    def test_parallel_replay_speedup(self, tmp_path, record_result):
        """Serial vs 4-worker process replay on a legacy-only backup."""
        clock = ManualClock(0.0)
        backup = DiskBackup(tmp_path / "legacy", snapshots=False)
        leafmap = LeafMap(clock=clock, rows_per_block=256)
        table = leafmap.get_or_create("service_requests")
        rows = service_requests(BASE_ROWS + ROUNDS * ROWS_PER_ROUND)
        for batch in (BASE_ROWS, *([ROWS_PER_ROUND] * ROUNDS)):
            table.add_rows(islice(rows, batch))
            leafmap.seal_all()
            backup.sync_leafmap(leafmap)
        expected = rows_digest(leafmap.snapshot_rows())

        serial_map = LeafMap(clock=clock, rows_per_block=256)
        started = time.perf_counter()
        recover_leafmap(backup, serial_map)
        serial_s = time.perf_counter() - started
        assert rows_digest(serial_map.snapshot_rows()) == expected

        parallel_map = LeafMap(clock=clock, rows_per_block=256)
        started = time.perf_counter()
        replay_leafmap(backup, parallel_map, workers=WORKERS, backend="process")
        parallel_s = time.perf_counter() - started
        assert rows_digest(parallel_map.snapshot_rows()) == expected

        speedup = serial_s / parallel_s
        record_result(
            "E17",
            f"legacy replay, {WORKERS} process workers vs serial",
            ">= 2x on >= 4 cores",
            f"{serial_s * 1000:.0f} ms vs {parallel_s * 1000:.0f} ms "
            f"({speedup:.2f}x on {os.cpu_count() or 1} cores)",
        )
        RESULTS["replay_seconds"] = {"serial": serial_s, "parallel": parallel_s}
        RESULTS["replay_speedup"] = speedup
        _dump_artifact()
        if (os.cpu_count() or 1) >= 4:
            assert speedup >= 2.0, (
                f"{WORKERS} process workers only {speedup:.2f}x the serial "
                f"replay on a {os.cpu_count()}-core host"
            )
        else:
            pytest.skip(
                f"measured {speedup:.2f}x on a {os.cpu_count() or 1}-core "
                "host (GIL/fork-bound); the >= 2x floor needs >= 4 cores"
            )

    def test_replay_cost_follows_survivors(self, tmp_path, record_result):
        """The log is append-only and expiry is a count in the manifest,
        so an old leaf's log is mostly dead rows.  Replay reads every
        chunk header and CRC but decodes only the chunks that still hold
        live rows: with a quarter of the log alive it must cost under
        half of replaying all of it (decoding every chunk first, it cost
        about three quarters)."""
        clock = ManualClock(0.0)
        backup = DiskBackup(tmp_path / "legacy", snapshots=False)
        leafmap = LeafMap(clock=clock, rows_per_block=256)
        table = leafmap.get_or_create("service_requests")
        rows = service_requests(BASE_ROWS + ROUNDS * ROWS_PER_ROUND)
        for batch in (*([ROWS_PER_ROUND] * ROUNDS), BASE_ROWS):
            table.add_rows(islice(rows, batch))
            leafmap.seal_all()
            backup.sync_leafmap(leafmap)
        log_rows = table.row_count

        def serial_replay() -> tuple[float, int]:
            expected = rows_digest(leafmap.snapshot_rows())
            best = float("inf")
            for _ in range(3):
                restored = LeafMap(clock=clock, rows_per_block=256)
                started = time.perf_counter()
                count = recover_leafmap(backup, restored)
                best = min(best, time.perf_counter() - started)
                assert rows_digest(restored.snapshot_rows()) == expected
            return best, count

        full_s, full_count = serial_replay()
        assert full_count == log_rows
        # Size-limit drops, oldest block first, down to a quarter.
        table.enforce_size_limit(table.sealed_nbytes // 4)
        backup.sync_leafmap(leafmap)
        trimmed_s, live_rows = serial_replay()
        live_fraction = live_rows / log_rows
        assert 0.15 < live_fraction < 0.30
        record_result(
            "E17",
            f"serial legacy replay, {live_fraction:.0%} of the log alive vs all of it",
            "< 0.5x the time",
            f"{trimmed_s * 1000:.0f} ms ({live_rows / trimmed_s:,.0f} rows/s) vs "
            f"{full_s * 1000:.0f} ms ({log_rows / full_s:,.0f} rows/s), "
            f"{trimmed_s / full_s:.2f}x",
        )
        RESULTS["serial_replay_rows_per_s"] = log_rows / full_s
        RESULTS["log_live_fraction"] = live_fraction
        RESULTS["trimmed_replay"] = {
            "seconds": trimmed_s,
            "rows_per_s": live_rows / trimmed_s,
            "time_vs_full_log": trimmed_s / full_s,
        }
        _dump_artifact()
        assert trimmed_s < 0.5 * full_s

    def test_simulator_backs_both_floors(self, record_result):
        """The hardware model's claims hold regardless of host cores:
        the paper-profile chain cuts sync bytes ~5.7x and 4 process
        workers land ~3.2x on the Amdahl replay model (threads stay at
        1x — the decode loop holds the GIL)."""
        profile = paper_profile()
        reduction = profile.incremental_sync_reduction()
        process = profile.parallel_replay_speedup(WORKERS, "process")
        thread = profile.parallel_replay_speedup(WORKERS, "thread")
        assert reduction >= 5.0
        assert process >= 2.0
        assert thread == pytest.approx(1.0)
        # More workers than translate cores buys nothing extra.
        assert profile.parallel_replay_speedup(8, "process") == (
            pytest.approx(process)
        )
        record_result(
            "E17",
            "simulated sync-write reduction / replay speedup (4 workers)",
            ">= 5x bytes, >= 2x replay",
            f"{reduction:.1f}x bytes, {process:.2f}x process / "
            f"{thread:.2f}x thread replay",
        )
        RESULTS["sim"] = {
            "sync_write_reduction": reduction,
            "replay_speedup_process": process,
            "replay_speedup_thread": thread,
        }
        _dump_artifact()
