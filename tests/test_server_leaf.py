"""Tests for the leaf server lifecycle and data plane."""

import shutil
import sys
import threading

import pytest

from repro.core.engine import RecoveryMethod
from repro.disk.backup import DiskBackup
from repro.errors import CorruptionError, StateError
from repro.query.query import Aggregation, Query
from repro.server.leaf import LeafServer, LeafStatus
from repro.util.memtrack import MemoryTracker
from tests.conftest import SHM_DIR


def make_leaf(shm_namespace, tmp_path, clock, leaf_id="0", **kwargs):
    return LeafServer(
        leaf_id,
        backup=DiskBackup(tmp_path / f"leaf-{leaf_id}"),
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=50,
        **kwargs,
    )


ROWS = [{"time": 1000 + i, "host": f"h{i % 3}", "v": float(i)} for i in range(120)]


class TestLifecycle:
    def test_first_boot_is_empty_disk_recovery(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        report = leaf.start()
        assert report.method is RecoveryMethod.DISK
        assert leaf.status is LeafStatus.ALIVE
        assert leaf.leafmap.row_count == 0

    def test_cannot_start_twice(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        with pytest.raises(StateError):
            leaf.start()

    def test_shm_restart_cycle(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", ROWS)
        report = leaf.shutdown(use_shm=True)
        assert report is not None and report.rows == 120
        assert leaf.status is LeafStatus.DOWN

        reborn = make_leaf(shm_namespace, tmp_path, clock)
        report = reborn.start()
        assert report.method is RecoveryMethod.SHARED_MEMORY
        assert reborn.leafmap.row_count == 120

    def test_disk_only_shutdown_recovers_from_disk(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", ROWS)
        assert leaf.shutdown(use_shm=False) is None
        reborn = make_leaf(shm_namespace, tmp_path, clock)
        # A clean shutdown seals and syncs, leaving a fresh snapshot.
        assert reborn.start().method is RecoveryMethod.DISK_SNAPSHOT
        assert reborn.leafmap.row_count == 120

    def test_crash_loses_unsynced_rows(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", ROWS[:100])
        leaf.sync_to_disk()
        leaf.add_rows("events", ROWS[100:])  # never synced
        leaf.crash()
        assert leaf.status is LeafStatus.DOWN
        reborn = make_leaf(shm_namespace, tmp_path, clock)
        report = reborn.start()
        # 100 rows sealed evenly at the sync point, so its snapshot is
        # trusted; either disk rung would lose the same unsynced tail.
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert reborn.leafmap.row_count == 100  # the tail is gone

    @pytest.mark.parametrize("go_down", ["crash", "disk_only_shutdown"])
    def test_heap_charge_leaves_a_shared_tracker_with_the_process(
        self, go_down, shm_namespace, tmp_path, clock
    ):
        """The heap dies with the process: neither a crash nor a
        disk-only shutdown may leave this leaf's charge on the
        machine-wide tracker, or every restart after it double-counts."""
        tracker = MemoryTracker()
        leaf = make_leaf(shm_namespace, tmp_path, clock, tracker=tracker)
        leaf.start()
        leaf.add_rows("events", ROWS)
        leaf.leafmap.seal_all()
        leaf.sync_to_disk()
        for _ in range(3):  # the first restore is what charges the heap
            if go_down == "crash":
                leaf.crash()
            else:
                leaf.shutdown(use_shm=False)
            assert tracker.in_region("heap") == 0
            leaf.start()
            assert tracker.in_region("heap") == leaf.used_bytes > 0
        leaf.crash()
        assert tracker.total == 0

    @pytest.mark.parametrize("serving", [False, True], ids=["blocking", "serving"])
    def test_heap_charge_is_exact_across_expiring_restarts(
        self, serving, shm_namespace, tmp_path, clock
    ):
        """Ingest and expiry between restarts are not reported to the
        tracker; the shutdown reconciles the engine's charge with what is
        resident in *both* directions, so a leaf that expired more than
        it ingested does not carry the surplus on the heap region for
        the rest of its life (it used to: only a deficit was charged)."""
        tracker = MemoryTracker()
        leaf = make_leaf(shm_namespace, tmp_path, clock, tracker=tracker)
        leaf.start()
        t0 = int(clock.now())
        sealed_history = []
        for slot in range(10):
            # Uneven slots, so the resident bytes both grow and shrink
            # from one restart to the next.
            n_rows = 150 if slot % 3 == 0 else 50
            leaf.add_rows(
                "events",
                [
                    {"time": t0 + slot * 100 + i % 100, "host": f"h{i % 7}", "v": i / 3}
                    for i in range(n_rows)
                ],
            )
            clock.set(t0 + (slot + 1) * 100)
            leaf.expire(200)  # keeps the two newest slots
            leaf.shutdown(use_shm=True)
            assert tracker.in_region("heap") == 0
            if serving:
                leaf.start(serve_while_restoring=True)
                leaf.wait_restored()
            else:
                leaf.start()
            sealed = sum(table.sealed_nbytes for table in leaf.leafmap)
            assert tracker.in_region("heap") == sealed > 0
            assert tracker.in_region("shm") == 0
            sealed_history.append(sealed)
        grew = [b > a for a, b in zip(sealed_history, sealed_history[1:])]
        assert True in grew and False in grew, "the test must drift both ways"
        leaf.crash()
        assert tracker.total == 0

    @pytest.mark.parametrize("serving", [False, True], ids=["blocking", "serving"])
    def test_a_start_whose_whole_ladder_fails_ends_down(
        self, serving, shm_namespace, tmp_path, clock
    ):
        """No shm after a crash, no snapshot chain, and the log corrupt
        mid-file: every rung fails.  The start raises and leaves the leaf
        DOWN, not accepting adds into an empty, unrestored map, and a
        start after the log is mended comes up whole."""
        tracker = MemoryTracker()
        leaf = make_leaf(shm_namespace, tmp_path, clock, tracker=tracker)
        leaf.start()
        rows = [{"time": 1000 + i, "host": f"h{i % 3}", "v": float(i)} for i in range(150)]
        leaf.add_rows("events", rows[:100])
        leaf.sync_to_disk()
        leaf.add_rows("events", rows[100:])
        leaf.sync_to_disk()  # a second chunk, so the first is mid-file
        leaf.crash()
        log = leaf.backup.table_file("events")
        intact = log.read_bytes()
        # The first stored byte: an 8-byte file header, then the first
        # chunk's 28-byte header.  Its CRC now fails mid-file.
        flipped = bytearray(intact)
        flipped[8 + 28] ^= 0xFF
        log.write_bytes(bytes(flipped))
        shutil.rmtree(leaf.backup.snapshot_dir)

        with pytest.raises(CorruptionError):
            leaf.start(serve_while_restoring=serving)
        assert leaf.status is LeafStatus.DOWN
        with pytest.raises(StateError):
            leaf.add_rows("events", rows[:1])
        assert tracker.total == 0
        assert not [p for p in SHM_DIR.iterdir() if p.name.startswith(shm_namespace)]

        log.write_bytes(intact)
        leaf.start(serve_while_restoring=serving)
        leaf.wait_restored()
        assert leaf.status is LeafStatus.ALIVE
        assert leaf.leafmap.row_count == 150

    def test_shutdown_requires_alive(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        with pytest.raises(StateError):
            leaf.shutdown()


class TestDataPlane:
    def test_add_and_query(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", ROWS)
        execution = leaf.query(Query("events", aggregations=(Aggregation("count"),)))
        assert execution.partial[()][0].finalize() == 120

    def test_down_leaf_rejects_everything(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        with pytest.raises(StateError):
            leaf.add_rows("events", ROWS)
        with pytest.raises(StateError):
            leaf.query(Query("events"))

    def test_free_memory_reporting(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock, capacity_bytes=1 << 20)
        leaf.start()
        before = leaf.free_memory
        assert before == 1 << 20
        leaf.add_rows("events", ROWS)
        assert leaf.free_memory < before
        assert leaf.free_memory + leaf.used_bytes == 1 << 20

    def test_expire_ages_out_rows(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", ROWS)  # times 1000..1119
        leaf.leafmap.seal_all()
        clock.set(1_390_000_000.0)  # now
        dropped = leaf.expire(retention_seconds=int(clock.now()) - 1050)
        assert dropped == 50
        assert leaf.leafmap.row_count == 70
        # Expiry survives a disk recovery (watermark recorded).
        leaf.sync_to_disk()
        leaf.shutdown(use_shm=False)
        reborn = make_leaf(shm_namespace, tmp_path, clock)
        reborn.start()
        assert reborn.leafmap.row_count == 70

    def test_queries_during_adds_see_whole_batches(self, shm_namespace, tmp_path, clock):
        """One thread adds batches (sealing some, buffering the rest) while
        another queries: every answer counts the rows before some add and
        after it — never part of a batch — and nothing raises."""
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", ROWS[:30])
        batch, batches = 7, 40
        query = Query("events", aggregations=(Aggregation("count"), Aggregation("avg", "v")))
        counts, errors = [], []
        asked = threading.Event()  # the writer starts after the first answer

        def add() -> None:
            try:
                asked.wait()
                for b in range(batches):
                    leaf.add_rows(
                        "events",
                        [{"time": 2000 + b * batch + i, "v": float(i)} for i in range(batch)],
                    )
            except Exception as exc:  # reported below, with the reader's
                errors.append(exc)

        def ask() -> None:
            try:
                while not counts or writer.is_alive():
                    counts.append(leaf.query(query).partial[()][0].count)
                    asked.set()
            except Exception as exc:
                errors.append(exc)
            finally:
                asked.set()

        writer = threading.Thread(target=add)
        reader = threading.Thread(target=ask)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: interleave more
        try:
            writer.start()
            reader.start()
            writer.join(timeout=60)
            reader.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not writer.is_alive() and not reader.is_alive()
        assert errors == []
        assert all(30 <= c <= 30 + batch * batches and (c - 30) % batch == 0 for c in counts)
        assert counts == sorted(counts)
        final = leaf.query(query).partial[()][0].count
        assert final == 30 + batch * batches

    def test_expire_requires_alive(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        with pytest.raises(StateError):
            leaf.expire(10)

    def test_repr_mentions_status(self, shm_namespace, tmp_path, clock):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        assert "init" in repr(leaf)


class TestRestartEquivalence:
    def test_query_results_identical_across_shm_restart(
        self, shm_namespace, tmp_path, clock
    ):
        """Invariant 3, at server level: the same query gives the same
        answer before and after a shared memory restart."""
        query = Query(
            "events",
            aggregations=(Aggregation("count"), Aggregation("avg", "v")),
            group_by=("host",),
        )
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", ROWS)
        from repro.query.aggregate import merge_leaf_results

        before = merge_leaf_results(query, [leaf.query(query).partial], 1)
        leaf.shutdown(use_shm=True)
        reborn = make_leaf(shm_namespace, tmp_path, clock)
        reborn.start()
        after = merge_leaf_results(query, [reborn.query(query).partial], 1)
        assert [(r.group, r.values) for r in before.rows] == [
            (r.group, r.values) for r in after.rows
        ]
