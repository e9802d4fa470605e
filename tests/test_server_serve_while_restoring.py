"""The leaf server's serve-while-restoring window, end to end.

Covers the ``RECOVERING_MEMORY_SERVING`` status and its data plane, the
status-ladder regression (a leaf must advertise ``RECOVERING_MEMORY``
right up to the disk-fallback boundary and ``RECOVERING_DISK`` after
it), queries in every restore phase — digest-identical to a blocking
restore, one leaf or a whole machine — and expiry racing the fault-in
path against the decoded-column cache.
"""

from __future__ import annotations

import shutil
import sys
import threading

import pytest

from repro.columnstore.rowblock import RowBlock
from repro.core.engine import RecoveryMethod
from repro.disk.backup import DiskBackup
from repro.errors import CorruptionError, StateError
from repro.query.query import Aggregation, Query
from repro.server.leaf import LeafServer, LeafStatus
from repro.server.machine import Machine
from repro.util.checksum import rows_digest
from repro.util.memtrack import MemoryTracker
from tests.conftest import SHM_DIR
from tests.crashpoints import Recorder

ROWS = [
    {"time": 1000 + i, "host": f"h{i % 3}", "v": float(i % 17)}
    for i in range(240)
]

FULL_QUERY = Query(
    "events",
    aggregations=(Aggregation("count", None), Aggregation("sum", "v")),
    group_by=("host",),
)

#: Touches only the last sealed block ([1200, 1239] at 50 rows/block).
NARROW_QUERY = Query(
    "events",
    start_time=1200,
    end_time=1240,
    aggregations=(Aggregation("count", None),),
)


def make_leaf(shm_namespace, tmp_path, clock, leaf_id="0", **kwargs):
    return LeafServer(
        leaf_id,
        backup=DiskBackup(tmp_path / f"leaf-{leaf_id}"),
        namespace=shm_namespace,
        clock=clock,
        rows_per_block=50,
        **kwargs,
    )


def seeded_down_leaf(shm_namespace, tmp_path, clock, leaf_id="0"):
    """A leaf that served ``ROWS`` and shut down into shared memory."""
    leaf = make_leaf(shm_namespace, tmp_path, clock, leaf_id=leaf_id)
    leaf.start()
    leaf.add_rows("events", ROWS)
    leaf.shutdown(use_shm=True)
    return make_leaf(shm_namespace, tmp_path, clock, leaf_id=leaf_id)


def partial_dict(execution):
    return {
        key: [agg.to_dict() for agg in aggs]
        for key, aggs in execution.partial.items()
    }


class TestServingWindow:
    def test_status_and_data_plane_while_serving(
        self, shm_namespace, tmp_path, clock
    ):
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        report = reborn.start(serve_while_restoring=True, sweep=False)
        assert reborn.status is LeafStatus.RECOVERING_MEMORY_SERVING
        assert report.lazy
        assert reborn.accepts_adds and reborn.accepts_queries
        # The live report is the leaf's record of the restore.
        assert reborn.last_restart_report is report
        assert report.fraction_restored == 0.0

        narrow = reborn.query(NARROW_QUERY)
        assert narrow.rows_matched == 40
        assert 0.0 < report.fraction_restored < 1.0
        reborn.add_rows("events", [{"time": 2000, "host": "late", "v": 1.0}])

        final = reborn.wait_restored()
        assert final is report
        assert reborn.status is LeafStatus.ALIVE
        assert final.method is RecoveryMethod.SHARED_MEMORY
        assert final.fraction_restored == 1.0
        assert reborn.leafmap.row_count == 241

    def test_lazy_restore_digest_matches_blocking_restore(
        self, shm_namespace, tmp_path, clock
    ):
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        reborn.start()  # blocking
        blocking_digest = rows_digest(reborn.leafmap.snapshot_rows())
        reborn.shutdown(use_shm=True)

        reborn.start(serve_while_restoring=True, sweep=False)
        reborn.query(NARROW_QUERY)
        reborn.wait_restored()
        assert rows_digest(reborn.leafmap.snapshot_rows()) == blocking_digest

    def test_background_sweep_finishes_without_queries(
        self, shm_namespace, tmp_path, clock
    ):
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        reborn.start(serve_while_restoring=True)  # sweep thread on
        final = reborn.wait_restored(timeout=30)
        assert reborn.status is LeafStatus.ALIVE
        assert final.method is RecoveryMethod.SHARED_MEMORY
        assert reborn.leafmap.row_count == 240

    def test_sync_to_disk_skipped_while_partially_resident(
        self, shm_namespace, tmp_path, clock
    ):
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        reborn.start(serve_while_restoring=True, sweep=False)
        assert reborn.sync_to_disk() == 0
        reborn.wait_restored()
        reborn.sync_to_disk()  # back to the normal path

    def test_shutdown_mid_restore_drains_first(
        self, shm_namespace, tmp_path, clock
    ):
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        reborn.start(serve_while_restoring=True, sweep=False)
        reborn.query(NARROW_QUERY)
        report = reborn.shutdown(use_shm=True)
        assert report.rows == 240
        again = make_leaf(shm_namespace, tmp_path, clock)
        assert again.start().method is RecoveryMethod.SHARED_MEMORY
        assert again.leafmap.row_count == 240

    def test_crash_mid_restore_next_boot_walks_the_disk_ladder(
        self, shm_namespace, tmp_path, clock
    ):
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        reborn.start(serve_while_restoring=True, sweep=False)
        reborn.query(NARROW_QUERY)
        reborn.crash()
        assert reborn.status is LeafStatus.DOWN
        again = make_leaf(shm_namespace, tmp_path, clock)
        report = again.start()
        assert report.method in (
            RecoveryMethod.DISK_SNAPSHOT,
            RecoveryMethod.DISK,
        )
        assert again.leafmap.row_count == 240

    def test_expiry_waits_for_alive(self, shm_namespace, tmp_path, clock):
        """Figure 5 caption: deletions stop once shutdown starts and are
        made after recovery — a serving leaf refuses them, and the ALIVE
        leaf then drops the same two oldest blocks."""
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        reborn.start(serve_while_restoring=True, sweep=False)
        reborn.query(NARROW_QUERY)
        retention = int(clock.now()) - 1100
        with pytest.raises(StateError):
            reborn.expire(retention)
        reborn.wait_restored()
        assert reborn.leafmap.row_count == 240
        assert reborn.expire(retention) == 100
        assert reborn.leafmap.row_count == 140
        table = reborn.leafmap.get_table("events")
        assert table.total_rows_expired == 100
        assert min(row["time"] for row in table.to_rows()) == 1100


class TestFallbackStatusLadder:
    """Regression: the Figure-5 status ladder around disk fallback.

    The leaf must advertise ``RECOVERING_MEMORY`` (rejecting work) right
    up to the moment memory recovery is abandoned, flip to
    ``RECOVERING_DISK`` (accepting adds and queries) for the disk rungs,
    and end ``ALIVE`` — on the blocking and the lazy start path alike.
    """

    @pytest.mark.parametrize("serve", [False, True])
    def test_status_flips_exactly_at_the_fallback_boundary(
        self, shm_namespace, tmp_path, clock, serve, monkeypatch
    ):
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        statuses = {}

        def invalidate(effect):
            statuses["invalidate"] = reborn.status
            raise CorruptionError("injected fault")

        recorder = Recorder(monkeypatch)
        recorder.before(invalidate, kind="set_valid", target="=False")
        # The fall came before any block: the first heap charge is the
        # snapshot rung's.
        recorder.before(
            lambda effect: statuses.setdefault("snapshot", reborn.status),
            kind="allocate",
            target="heap",
        )
        report = reborn.start(serve_while_restoring=serve, sweep=False)
        assert statuses["invalidate"] is LeafStatus.RECOVERING_MEMORY
        assert statuses["snapshot"] is LeafStatus.RECOVERING_DISK
        assert report.fell_back_to_disk
        assert report.failure_reason == "CorruptionError: injected fault"
        assert reborn.status is LeafStatus.ALIVE
        assert reborn.leafmap.row_count == 240

    def test_rejects_work_before_serving_status(
        self, shm_namespace, tmp_path, clock
    ):
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        assert not leaf.accepts_queries
        with pytest.raises(StateError):
            leaf.query(FULL_QUERY)

    def test_a_query_whose_fault_in_and_ladder_fail_ends_down(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """A query faults a block in, the decode fails, and every rung
        below fails too (no snapshot chain, the log corrupt mid-file).
        The query raises and the leaf is DOWN at once, not accepting adds
        into its emptied map until a sweep or ``wait_restored`` notices;
        ``wait_restored`` still re-raises the restore's error."""
        tracker = MemoryTracker()
        leaf = make_leaf(shm_namespace, tmp_path, clock, tracker=tracker)
        leaf.start()
        rows = ROWS[:150]
        leaf.add_rows("events", rows[:100])
        leaf.sync_to_disk()
        leaf.add_rows("events", rows[100:])
        leaf.sync_to_disk()  # a second chunk, so the first is mid-file
        leaf.shutdown(use_shm=True)
        reborn = make_leaf(shm_namespace, tmp_path, clock, tracker=tracker)
        reborn.start(serve_while_restoring=True, sweep=False)
        assert reborn.status is LeafStatus.RECOVERING_MEMORY_SERVING

        log = reborn.backup.table_file("events")
        flipped = bytearray(log.read_bytes())
        flipped[8 + 28] ^= 0xFF  # the first chunk's first stored byte
        log.write_bytes(bytes(flipped))
        shutil.rmtree(reborn.backup.snapshot_dir)

        def broken_unpack(payload):
            raise CorruptionError("injected decode fault")

        monkeypatch.setattr(RowBlock, "unpack", staticmethod(broken_unpack))
        settled = []
        settle = reborn._settle_locked

        def counted_settle(alive):
            settled.append(alive)
            settle(alive)

        monkeypatch.setattr(reborn, "_settle_locked", counted_settle)
        restorer = reborn._restorer
        with pytest.raises(CorruptionError):
            reborn.query(FULL_QUERY)
        assert reborn.status is LeafStatus.DOWN
        with pytest.raises(StateError):
            reborn.add_rows("events", rows[:1])
        assert tracker.total == 0
        assert not [p for p in SHM_DIR.iterdir() if p.name.startswith(shm_namespace)]
        reborn._sweep_loop(restorer)  # a sweep thread that runs afterwards
        with pytest.raises(CorruptionError):
            reborn.wait_restored()
        assert reborn.status is LeafStatus.DOWN
        assert settled == [False]  # settled once, by the query


class TestPhaseSweep:
    """Queries in every restore phase answer identically to a blocking
    restore — the core serve-while-restoring correctness claim."""

    PHASES = ("on_publish", "mid_fault_in", "mid_sweep", "after_restore")

    @pytest.mark.parametrize("phase", PHASES)
    def test_full_query_matches_blocking_restore_in_phase(
        self, shm_namespace, tmp_path, clock, phase
    ):
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        reborn.start()  # blocking baseline
        baseline = partial_dict(reborn.query(FULL_QUERY))
        blocking_digest = rows_digest(reborn.leafmap.snapshot_rows())
        reborn.shutdown(use_shm=True)

        reborn.start(serve_while_restoring=True, sweep=False)
        if phase == "mid_fault_in":
            reborn.query(NARROW_QUERY)
        elif phase == "mid_sweep":
            restorer = reborn.leafmap.restorer
            assert restorer.sweep_one() and restorer.sweep_one()
        elif phase == "after_restore":
            reborn.wait_restored()
        answer = partial_dict(reborn.query(FULL_QUERY))
        assert answer == baseline
        reborn.wait_restored()
        assert rows_digest(reborn.leafmap.snapshot_rows()) == blocking_digest

    #: A fault while the directory goes up (its first side effect, the
    #: invalidate), or in a block's fault-in (its heap charge).
    WINDOWS = {
        "restore:publish_directory": dict(kind="set_valid", target="=False"),
        "restore:fault_block": dict(kind="allocate", target="heap"),
    }

    @pytest.mark.parametrize("point", list(WINDOWS))
    def test_faulted_lazy_restore_still_answers_identically(
        self, shm_namespace, tmp_path, clock, point, monkeypatch
    ):
        """A fault at either lazy-only boundary routes the leaf down the
        disk ladder; the query in flight (or the next one) still answers
        with the blocking restore's exact result."""
        reborn = seeded_down_leaf(shm_namespace, tmp_path, clock)
        reborn.start()
        baseline = partial_dict(reborn.query(FULL_QUERY))
        blocking_digest = rows_digest(reborn.leafmap.snapshot_rows())
        reborn.shutdown(use_shm=True)

        recorder = Recorder(monkeypatch)
        recorder.fail(**self.WINDOWS[point])
        report = reborn.start(serve_while_restoring=True, sweep=False)
        if point == "restore:publish_directory":
            # The ladder already ran blocking inside start().
            assert reborn.status is LeafStatus.ALIVE
            assert report.fell_back_to_disk
        answer = partial_dict(reborn.query(FULL_QUERY))
        assert recorder.fired, "the injected fault never fired"
        assert answer == baseline
        final = reborn.wait_restored()
        assert final.fell_back_to_disk
        assert reborn.status is LeafStatus.ALIVE
        assert rows_digest(reborn.leafmap.snapshot_rows()) == blocking_digest

    def test_queries_racing_the_sweep_answer_identically(
        self, shm_namespace, tmp_path, clock
    ):
        """The restore driver keeps no lock of its own: the leaf's lock
        is all that keeps query fault-ins and the sweep thread from
        adopting a block twice or missing one.  Four query threads race
        the sweep with frequent thread switches; every answer, and the
        leaf once restored, equal the blocking restore's."""
        rows = [
            {"time": 1000 + i, "host": f"h{i % 3}", "v": float(i % 17)}
            for i in range(2000)
        ]
        leaf = make_leaf(shm_namespace, tmp_path, clock)
        leaf.start()
        leaf.add_rows("events", rows)
        leaf.shutdown(use_shm=True)
        windows = [
            Query(
                "events",
                start_time=start,
                end_time=start + 50,
                aggregations=(Aggregation("count", None), Aggregation("sum", "v")),
            )
            for start in range(1000, 3000, 50)  # one block each
        ]
        leaf.start()
        baseline = [partial_dict(leaf.query(window)) for window in windows]
        blocking_digest = rows_digest(leaf.leafmap.snapshot_rows())
        leaf.shutdown(use_shm=True)

        report = leaf.start(serve_while_restoring=True)  # sweep thread on
        mismatches, errors = [], []

        def ask(offset):
            try:
                for k in range(len(windows)):
                    at = (offset + 7 * k) % len(windows)
                    if partial_dict(leaf.query(windows[at])) != baseline[at]:
                        mismatches.append(at)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=ask, args=(10 * i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: interleave more
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and mismatches == []
        assert leaf.wait_restored(timeout=60) is report
        assert report.row_blocks == report.blocks_total == len(windows)
        assert report.fraction_restored == 1.0
        assert rows_digest(leaf.leafmap.snapshot_rows()) == blocking_digest

    def test_machine_restart_serving_digest_identical(
        self, shm_namespace, tmp_path, clock
    ):
        """Every leaf's lazily-restored contents equal its blocking
        restore's, with queries served mid-window."""
        machine = Machine(
            "m0",
            tmp_path,
            leaves_per_machine=2,
            namespace=shm_namespace,
            rows_per_block=50,
            shared_tracker=True,
        )
        machine.start_all()
        for offset, leaf in enumerate(machine.leaves):
            leaf.add_rows(
                "events",
                [dict(row, v=row["v"] + offset) for row in ROWS],
            )
        report = machine.restart_all(workers=2)
        assert report.failures == []
        digests = [
            rows_digest(leaf.leafmap.snapshot_rows())
            for leaf in machine.leaves
        ]
        baselines = [
            partial_dict(leaf.query(FULL_QUERY)) for leaf in machine.leaves
        ]

        report = machine.restart_all(workers=2, serve_while_restoring=True)
        assert report.failures == []
        assert report.serve_while_restoring
        for leaf, baseline in zip(machine.leaves, baselines):
            assert leaf.accepts_queries
            assert partial_dict(leaf.query(FULL_QUERY)) == baseline
        machine.wait_restored_all(timeout=30)
        for leaf, digest in zip(machine.leaves, digests):
            assert leaf.status is LeafStatus.ALIVE
            assert rows_digest(leaf.leafmap.snapshot_rows()) == digest


class TestExpiryAndCacheDuringRestore:
    """Regression: the decoded-column cache vs the fault-in path.

    Blocks adopted mid-restore populate the cache as queries decode
    them; when expiry — refused while the restore serves — then drops
    those blocks, the cache must shed their entries and every later
    answer must match a leaf that did the same thing with a blocking
    restore.
    """

    def test_seal_lazy_restore_expire_requery_digest(
        self, shm_namespace, tmp_path, clock
    ):
        retention = int(clock.now()) - 1100

        # Control: blocking restore, then the same expiry and query.
        control = seeded_down_leaf(
            shm_namespace, tmp_path, clock, leaf_id="ctl"
        )
        control.start()
        control.query(FULL_QUERY)  # warm the cache like the lazy leaf
        assert control.expire(retention) == 100
        control_answer = partial_dict(control.query(FULL_QUERY))
        control_digest = rows_digest(control.leafmap.snapshot_rows())

        lazy = seeded_down_leaf(shm_namespace, tmp_path, clock, leaf_id="lzy")
        lazy.start(serve_while_restoring=True, sweep=False)
        # Fault in the oldest data so adopted blocks sit in the cache...
        # (restated: a count over blocks wholly inside the window decodes
        # nothing, so the warm-up sums a column to put entries there)
        old_window = Query(
            "events",
            start_time=1000,
            end_time=1100,
            aggregations=(Aggregation("count", None), Aggregation("sum", "v")),
        )
        assert lazy.query(old_window).rows_matched == 100
        assert len(lazy.column_cache) > 0
        # ...then, once the leaf is ALIVE, expire exactly those blocks.
        with pytest.raises(StateError):
            lazy.expire(retention)
        lazy.wait_restored()
        assert lazy.expire(retention) == 100
        lazy_answer = partial_dict(lazy.query(FULL_QUERY))
        assert lazy_answer == control_answer
        assert rows_digest(lazy.leafmap.snapshot_rows()) == control_digest
        # And the expired blocks' decodes are gone from the cache.
        assert lazy.column_cache.stats().invalidations > 0
