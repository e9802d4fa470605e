"""Serve-while-restoring at the engine level: the restore handle.

The blocking restore's guarantees — valid-bit crash safety, tracker
balance, digest-identical recovered data — must all hold when the
restore is incremental: directory published first, blocks faulted in by
queries, remainder swept hottest table first, faults routed down the
disk ladder mid-flight.

The protocol exists once (``RestoreDriver``) over two byte sources, so
the scenario classes below are one contract suite run against both:
``source="shm"`` (the leaf's own segments, ``LazyRestore``) and
``source="replica"`` (a standby's wire session, ``ReplicaRestore``).
"""

from __future__ import annotations

import mmap
import random

import pytest

from repro.cluster.replication import ReplicaBlockServer, snapshot_leafmap
from repro.columnstore.colcache import DecodedColumnCache
from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.core.lazyrestore import RestoreDriver
from repro.util.budget import FootprintBudget
from repro.errors import CorruptionError, RecoveryError
from repro.query.execute import execute_on_leaf
from repro.query.query import Aggregation, Query
from repro.shm.layout import read_block_headers
from repro.shm.metadata import LeafMetadata
from repro.shm.segment import ShmSegment
from repro.util.memtrack import MemoryTracker

from tests.conftest import SHM_DIR, make_leafmap
from tests.crashpoints import Recorder
from tests.test_cluster_replication import make_engine


def engine_for(namespace, backup, clock, **kwargs):
    return RestartEngine(
        "0", namespace=namespace, backup=backup, clock=clock, **kwargs
    )


def seed_shm(namespace, backup, clock, tables=("events",), rows=120):
    """Back a populated leaf into shared memory; returns its snapshot."""
    leafmap = make_leafmap(clock, tables=tables, rows=rows)
    leafmap.seal_all()
    snapshot = leafmap.snapshot_rows()
    engine_for(namespace, backup, clock).backup_to_shm(leafmap)
    return snapshot


def fresh_map(clock, cache=None):
    return LeafMap(clock=clock, rows_per_block=50, column_cache=cache)


def count_query(start=None, end=None):
    return Query(
        "events",
        start_time=start,
        end_time=end,
        aggregations=[Aggregation("count", None)],
    )


class Rig:
    """One seeded byte source, and how to open a restart engine on it.

    ``seed`` leaves the leaf as a restart would find it: the backup
    synced, and the sealed blocks either in this leaf's shared memory
    (``shm``) or on a standby's block server with no local shm at all
    (``replica``).  The labels are what differs in the assertions.
    """

    def __init__(self, source, namespace, backup, clock):
        self.source = source
        self.namespace = namespace
        self.backup = backup
        self.clock = clock
        self.server = None
        self.sessions = []  # every wire session an engine opened
        shm = source == "shm"
        self.method = (
            RecoveryMethod.SHARED_MEMORY if shm else RecoveryMethod.REPLICA
        )
        self.leaf_states = (
            ["init", "memory_recovery", "memory_serving", "alive"]
            if shm
            else ["init", "replica_recovery", "alive"]
        )

    def seed(self, leafmap=None, tables=("events",), rows=120, tracker=None):
        """Populate the source; returns the rows a restore must yield."""
        if leafmap is None:
            leafmap = make_leafmap(self.clock, tables=tables, rows=rows)
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        if self.source == "shm":
            self.engine(tracker=tracker).backup_to_shm(leafmap)
        else:
            if self.backup is not None:
                self.backup.sync_leafmap(leafmap)
            self.server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        return snapshot

    def engine(self, tracker=None, budget=None):
        if self.source == "shm":
            return engine_for(
                self.namespace,
                self.backup,
                self.clock,
                tracker=tracker,
                budget=budget,
            )
        engine = make_engine(
            self.namespace, self.backup, self.server, self.clock, tracker
        )
        open_session = engine.replica_source

        def recording_source():
            self.sessions.append(open_session())
            return self.sessions[-1]

        engine.replica_source = recording_source
        engine.budget = budget
        return engine

    def close(self):
        if self.server is not None:
            self.server.close()
        # However a restore ended — finished, fell back, abandoned — its
        # wire session (sockets + the standby's pinned snapshot) is closed.
        assert all(session._closed for session in self.sessions)


@pytest.fixture(params=["shm", "replica"])
def rig(request, shm_namespace, backup, clock):
    rig = Rig(request.param, shm_namespace, backup, clock)
    yield rig
    rig.close()


class TestDirectoryPublish:
    def test_begin_serves_before_any_bytes_are_restored(
        self, shm_namespace, backup, clock
    ):
        seed_shm(shm_namespace, backup, clock)
        engine = engine_for(shm_namespace, backup, clock)
        restored = fresh_map(clock)
        handle = engine.begin_lazy_restore(restored)
        try:
            assert not handle.done
            progress = handle.progress()
            assert progress.bytes_restored == 0
            assert progress.blocks_restored == 0
            assert progress.blocks_total == 3  # 120 rows / 50 per block
            assert progress.fraction_restored == 0.0
            # The directory is the leaf's view: tables exist, counters
            # carried over, but no payload bytes were copied.
            assert restored.restorer is handle
            assert not restored.fully_resident
            table = restored.get_table("events")
            assert table.block_count == 0
            assert table.total_rows_ingested == 120
            pending = list(handle.iter_pending("events"))
            assert len(pending) == 3
            assert sum(desc.row_count for desc in pending) == 120
            assert pending[0].min_time == 1000
            assert handle.report.lazy
            # Crash safety: the valid bit went down before the publish.
            assert engine.shm_state_exists()
            assert not engine.shm_state_valid()
        finally:
            handle.drain()

    def test_no_shm_runs_the_disk_ladder_blocking(
        self, shm_namespace, backup, clock
    ):
        leafmap = make_leafmap(clock)
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        backup.sync_leafmap(leafmap)
        restored = fresh_map(clock)
        handle = engine_for(shm_namespace, backup, clock).begin_lazy_restore(
            restored
        )
        assert handle.done
        assert handle.report.method in (
            RecoveryMethod.DISK_SNAPSHOT,
            RecoveryMethod.DISK,
        )
        assert restored.fully_resident
        assert restored.snapshot_rows() == snapshot

    def test_corrupt_block_header_falls_back_with_the_decoders_reason(
        self, shm_namespace, backup, clock
    ):
        """Real hostile bytes, not an injected raise: the failed header
        decode must not pin the mapping past the fallback's close (it
        used to surface as a BufferError instead of the reason)."""
        snapshot = seed_shm(shm_namespace, backup, clock)
        meta = LeafMetadata.attach(shm_namespace, "0")
        record = meta.records[0]
        meta.close()
        with ShmSegment.attach(record.segment_name) as segment:
            view = segment.read_at(0, record.used_bytes)
            _, extents = read_block_headers(view)
            view.release()
            segment.write_at(extents[-1].offset, b"\xff" * 8)
        tracker = MemoryTracker()
        restored = fresh_map(clock)
        handle = engine_for(
            shm_namespace, backup, clock, tracker=tracker
        ).begin_lazy_restore(restored)
        assert handle.done and handle.error is None
        assert handle.report.fell_back_to_disk
        assert handle.report.failure_reason.startswith("CorruptionError")
        assert restored.snapshot_rows() == snapshot
        assert tracker.in_region("shm") == 0


class TestFaultIn:
    def test_query_faults_only_the_blocks_it_touches(self, rig, clock):
        rig.seed()
        restored = fresh_map(clock)
        handle = rig.engine().begin_lazy_restore(restored)
        assert handle.source == rig.source
        # Block boundaries: [1000, 1049], [1050, 1099], [1100, 1119].
        execution = execute_on_leaf(restored, count_query(1000, 1050))
        assert execution.rows_matched == 50
        progress = handle.progress()
        assert progress.blocks_restored == 1
        assert progress.queries_served == 1
        assert progress.bytes_restored_at_first_query is not None
        assert progress.bytes_restored_at_first_query < progress.bytes_total
        assert len(list(handle.iter_pending("events"))) == 2
        handle.drain()

    def test_fault_in_query_counts_and_is_idempotent(self, rig, clock):
        rig.seed()
        restored = fresh_map(clock)
        handle = rig.engine().begin_lazy_restore(restored)
        assert handle.fault_in_query("events", 1050, 1100) == 1
        assert handle.fault_in_query("events", 1050, 1100) == 0
        assert handle.fault_in_query("missing_table", None, None) == 0
        assert handle.fault_in_query("events", None, None) == 2
        assert handle.done  # everything is in; the handle self-finishes

    def test_drain_matches_blocking_restore_and_consumes_the_source(
        self, rig, clock
    ):
        snapshot = rig.seed(tables=("events", "metrics"))
        engine = rig.engine()
        restored = fresh_map(clock)
        handle = engine.begin_lazy_restore(restored)
        handle.drain()
        assert handle.done
        report = handle.report
        assert report.method is rig.method
        assert report.tables == 2
        assert report.row_blocks == 6
        assert report.rows == 240
        assert report.leaf_states == rig.leaf_states
        assert restored.snapshot_rows() == snapshot
        assert restored.restorer is None
        assert restored.fully_resident
        assert not engine.shm_state_exists()

    def test_sweep_prefers_the_hot_table(self, rig, clock):
        # Two tables with disjoint value columns, "cold" published first.
        leafmap = fresh_map(clock)
        leafmap.get_or_create("cold").add_rows(
            {"time": 1000 + i, "c": i} for i in range(100)
        )
        leafmap.get_or_create("hot").add_rows(
            {"time": 1000 + i, "h": i} for i in range(100)
        )
        snapshot = rig.seed(leafmap=leafmap)

        cache = DecodedColumnCache(1 << 20)
        restored = fresh_map(clock, cache=cache)
        handle = rig.engine().begin_lazy_restore(restored)
        # Heat the "h" column: the cache's lifetime lookup counters are
        # the sweep's priority signal (a probe block's uid is irrelevant
        # — heat is keyed by column name alone).
        probe = fresh_map(clock)
        probe_table = probe.get_or_create("probe")
        probe_table.add_rows([{"time": 1, "h": 0.0}])
        probe.seal_all()
        for _ in range(3):
            cache.get(probe_table.blocks[0], "h")

        assert handle.sweep_one() and handle.sweep_one()
        assert list(handle.iter_pending("hot")) == []
        assert len(list(handle.iter_pending("cold"))) == 2
        handle.drain()
        assert restored.snapshot_rows() == snapshot


class TestAccounting:
    def test_tracker_balances_through_a_lazy_restore(self, rig, clock):
        tracker = MemoryTracker()
        rig.seed(tracker=tracker)
        assert tracker.in_region("heap") == 0
        # Only the shm source occupies this machine's shared memory.
        source_bytes = tracker.in_region("shm")
        assert (source_bytes > 0) == (rig.source == "shm")

        restored = fresh_map(clock)
        handle = rig.engine(tracker=tracker).begin_lazy_restore(restored)
        # Publishing copies nothing: source still charged, heap still empty.
        assert tracker.in_region("shm") == source_bytes
        assert tracker.in_region("heap") == 0
        handle.fault_in_query("events", 1000, 1050)
        assert tracker.in_region("heap") > 0
        handle.drain()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    def test_budget_bounds_each_fault_in_window(self, rig, clock):
        rig.seed()
        budget = FootprintBudget(1 << 30)
        restored = fresh_map(clock)
        handle = rig.engine(budget=budget).begin_lazy_restore(restored)
        while handle.sweep_one():
            pass
        # Each block's copy window was reserved and released one at a
        # time — the peak is one block, not the whole leaf — and nothing
        # is left held.
        assert 0 < budget.peak_in_flight < handle.progress().bytes_total
        assert budget.in_flight == 0

    def test_drain_reserves_what_coexists(self, rig, clock):
        """A drain is table-at-a-time: shm holds one table's copy window
        (segment and heap copies coexist until the segment goes) for the
        whole table, as Figure 7's loop does; wire bytes are transient,
        so that source still reserves block by block."""
        rig.seed(tables=("events", "metrics"))
        windows = []
        if rig.source == "shm":
            meta = LeafMetadata.attach(rig.namespace, "0")
            windows = [record.used_bytes for record in meta.records]
            meta.close()
        budget = FootprintBudget(1 << 30)
        restored = fresh_map(clock)
        handle = rig.engine(budget=budget).begin_lazy_restore(restored)
        handle.drain()
        assert budget.in_flight == 0
        if rig.source == "shm":
            assert budget.peak_in_flight == max(windows) < sum(windows)
        else:
            assert 0 < budget.peak_in_flight < handle.progress().bytes_total


def fail_block(monkeypatch, nth=1):
    """The ``nth`` block adopted from now on dies before it is charged,
    on either source: the fault-in every query, sweep and drain does."""
    recorder = Recorder(monkeypatch)
    recorder.fail(kind="allocate", target="heap", nth=nth, exc=CorruptionError("injected block fault"))
    return recorder


class TestFallback:
    def test_fault_at_publish_runs_the_ladder_inside_begin(self, rig, clock, monkeypatch):
        snapshot = rig.seed()
        tracker = MemoryTracker()

        def explode(*args):
            raise CorruptionError("injected publish fault")

        monkeypatch.setattr(RestoreDriver, "_add_table", explode)
        engine = rig.engine(tracker=tracker)
        restored = fresh_map(clock)
        handle = engine.begin_lazy_restore(restored)
        assert handle.done
        report = handle.report
        assert report.fell_back_to_disk
        assert report.fell_back_from_replica == (rig.source == "replica")
        assert report.failure_reason == "CorruptionError: injected publish fault"
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == snapshot
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)
        assert not engine.shm_state_exists()

    def test_fault_mid_fault_in_routes_down_the_ladder(self, rig, clock, monkeypatch):
        snapshot = rig.seed()
        tracker = MemoryTracker()
        engine = rig.engine(tracker=tracker)
        restored = fresh_map(clock)
        handle = engine.begin_lazy_restore(restored)
        fail_block(monkeypatch, nth=2)
        # One block faults in cleanly, the second one dies mid-adopt.
        assert handle.fault_in_query("events", 1000, 1050) == 1
        handle.fault_in_query("events", None, None)
        assert handle.done
        report = handle.report
        assert report.fell_back_to_disk
        assert report.failure_reason == "CorruptionError: injected block fault"
        # A burned source is not retried: the disk rungs finish the job
        # (one wire session was ever opened).
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert len(rig.sessions) == (rig.source == "replica")
        # The attempt's partial progress survives on the report, and so
        # do the serving-window totals.
        assert report.attempt(rig.method).blocks == 1
        if rig.source == "shm":
            assert report.attempt(rig.method).rows == 50
        assert report.queries_served_during_restore == 2
        assert report.blocks_total == 3
        assert report.bytes_total == handle.progress().bytes_total > 0
        assert restored.snapshot_rows() == snapshot
        assert restored.restorer is None
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    def test_serving_window_adds_survive_the_fallback(self, rig, clock, monkeypatch):
        rig.seed()
        restored = fresh_map(clock)
        handle = rig.engine().begin_lazy_restore(restored)
        fail_block(monkeypatch)
        assert not handle.done
        # Rows that arrive while the leaf is serving must not be lost
        # when the restore falls back to replaying the backup.
        restored.get_table("events").add_rows(
            [{"time": 9000 + i, "host": "new"} for i in range(5)]
        )
        handle.fault_in_query("events", None, None)
        assert handle.done and handle.report.fell_back_to_disk
        table = restored.get_table("events")
        assert table.row_count == 125
        rows = table.to_rows()
        assert sum(1 for row in rows if row.get("host") == "new") == 5
        # Replayed rows are strictly older, so time order is preserved.
        times = [row["time"] for row in rows]
        assert times == sorted(times)

    def test_ladder_failure_surfaces_and_marks_the_handle(self, rig, clock, monkeypatch):
        # No backup configured: when the lazy restore faults, the disk
        # ladder has nowhere to go and the error must surface.
        rig.backup = None
        rig.seed()
        restored = fresh_map(clock)
        handle = rig.engine().begin_lazy_restore(restored)
        fail_block(monkeypatch)
        with pytest.raises(RecoveryError):
            handle.fault_in_query("events", None, None)
        assert handle.done
        assert handle.error is not None
        assert restored.restorer is None


class TestExpiry:
    def test_expire_drops_pending_blocks_without_faulting_them(
        self, rig, clock, tmp_path
    ):
        rig.seed()
        restored = fresh_map(clock)
        handle = rig.engine().begin_lazy_restore(restored)
        before = handle.progress()
        dropped = handle.expire_before(1050)  # block [1000, 1049] entirely
        assert dropped == 50
        after = handle.progress()
        assert after.blocks_total == before.blocks_total - 1
        assert after.bytes_total < before.bytes_total
        assert after.blocks_restored == 0  # expired, never read or decoded
        handle.drain()
        assert handle.report.method is rig.method
        assert handle.report.row_blocks == 2

        # Control: blocking restore, then the same expiry.
        from repro.disk.backup import DiskBackup

        control_map = make_leafmap(clock)
        control_map.seal_all()
        control_engine = RestartEngine(
            "ctl",
            namespace=rig.namespace,
            backup=DiskBackup(tmp_path / "control"),
            clock=clock,
        )
        control_engine.backup_to_shm(control_map)
        control = fresh_map(clock)
        control_engine.restore(control)
        control.get_table("events").expire_before(1050)
        assert restored.snapshot_rows() == control.snapshot_rows()
        assert (
            restored.get_table("events").total_rows_expired
            == control.get_table("events").total_rows_expired
        )


class TestPagesGoBack:
    """§4.4's flat footprint on the way back in: a segment's pages are
    handed back as the blocks above them come home, not when the whole
    table is — ``st_blocks`` of the ``/dev/shm`` file falls as a sweep
    walks the segment, and the tracker falls with it."""

    def seed(self, namespace, backup, clock, tracker):
        """One table of multi-page blocks (near-unique strings and random
        floats, which no codec shrinks much), backed into shm."""
        rng = random.Random(5)
        leafmap = LeafMap(clock=clock, rows_per_block=1000)
        leafmap.get_or_create("events").add_rows(
            {"time": 1000 + i, "id": f"req-{rng.getrandbits(40):010x}", "ms": rng.random()}
            for i in range(8000)
        )
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        engine_for(namespace, backup, clock, tracker=tracker).backup_to_shm(leafmap)
        meta = LeafMetadata.attach(namespace, "0")
        (record,) = meta.records
        meta.close()
        return snapshot, SHM_DIR / record.segment_name

    def test_st_blocks_fall_as_a_serving_restore_sweeps(self, shm_namespace, backup, clock):
        tracker = MemoryTracker()
        snapshot, path = self.seed(shm_namespace, backup, clock, tracker)
        resident = tracker.in_region("shm")
        tracker.reset_peak()
        restored = fresh_map(clock)
        handle = engine_for(shm_namespace, backup, clock, tracker=tracker).begin_lazy_restore(
            restored
        )
        pages, charged = [path.stat().st_blocks], [tracker.in_region("shm")]
        while handle.sweep_one() and path.exists():
            pages.append(path.stat().st_blocks)
            charged.append(tracker.in_region("shm"))
        assert handle.done and not path.exists()  # the rest went with the table
        assert restored.snapshot_rows() == snapshot
        assert len(pages) == 8  # one reading per block still pending
        assert pages == sorted(pages, reverse=True) and pages[-1] < pages[0] / 4
        assert charged == sorted(charged, reverse=True) and charged[-1] < charged[0] / 4
        blocks = restored.get_table("events").blocks
        largest = max(block.nbytes for block in blocks)
        assert largest > 2 * mmap.PAGESIZE
        assert tracker.peak_total <= resident + largest + mmap.PAGESIZE
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(block.nbytes for block in blocks)

    def test_without_madv_remove_the_charge_stays_whole(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """Where pages cannot be punched, ``release_pages`` frees nothing:
        the segment stays charged until its table is home, as before."""
        monkeypatch.setattr("repro.shm.segment._MADV_REMOVE", None)
        tracker = MemoryTracker()
        snapshot, path = self.seed(shm_namespace, backup, clock, tracker)
        resident = tracker.in_region("shm")
        restored = fresh_map(clock)
        handle = engine_for(shm_namespace, backup, clock, tracker=tracker).begin_lazy_restore(
            restored
        )
        pages = path.stat().st_blocks
        for _ in range(7):
            assert handle.sweep_one()
            assert path.stat().st_blocks == pages
            assert tracker.in_region("shm") == resident
        assert handle.sweep_one() is True and not path.exists()
        assert restored.snapshot_rows() == snapshot
        assert tracker.in_region("shm") == 0


class TestAbandon:
    def test_abandon_leaves_nothing_the_next_boot_trusts(self, rig, clock):
        snapshot = rig.seed()
        tracker = MemoryTracker()
        restored = fresh_map(clock)
        handle = rig.engine(tracker=tracker).begin_lazy_restore(restored)
        handle.fault_in_query("events", 1000, 1050)
        handle.abandon()
        assert handle.done
        assert restored.restorer is None
        assert handle.sweep_one() is False  # nothing moves after abandon
        # The valid bit is down (shm) or there never was local state
        # (replica): the next boot distrusts whatever is left, discards
        # it, and walks the disk ladder to the same data.
        engine = engine_for(rig.namespace, rig.backup, clock)
        assert not engine.shm_state_valid()
        reborn = fresh_map(clock)
        report = engine.restore(reborn)
        assert report.method in (
            RecoveryMethod.DISK_SNAPSHOT,
            RecoveryMethod.DISK,
        )
        assert reborn.snapshot_rows() == snapshot


ENTRIES = ("restore", "drain")


def run_entry(entry, engine, leafmap, **kwargs):
    """A blocking restore through either public entry point."""
    if entry == "restore":
        return engine.restore(leafmap, **kwargs)
    handle = engine.begin_lazy_restore(leafmap, **kwargs)
    handle.drain()
    assert handle.done
    return handle.report


@pytest.mark.parametrize("entry", ENTRIES)
class TestBlockingIsServingPlusDrain:
    """``restore()`` and ``begin_lazy_restore()`` + ``drain()`` are one
    body per source: same data, same order, same accounting, same fault
    boundaries, same falls."""

    def seed_two_tables(self, rig, clock, tracker):
        leafmap = fresh_map(clock)
        leafmap.get_or_create("events").add_rows(
            {"time": 1000 + i, "host": f"web{i % 7:02d}", "ms": i / 2}
            for i in range(170)
        )
        leafmap.get_or_create("metrics").add_rows(
            {"time": 5000 + i, "count": i} for i in range(60)
        )
        leafmap.seal_all()
        blocks = [block for table in leafmap for block in table.blocks]
        reference = {
            "order": {
                table.name: [block.content_key() for block in table.blocks]
                for table in leafmap
            },
            "tables": len(leafmap),
            "row_blocks": len(blocks),
            "rbc_copies": sum(len(block.schema) for block in blocks),
            "bytes_copied": sum(block.nbytes for block in blocks),
            "rows": sum(block.row_count for block in blocks),
            "heap": [table.sealed_nbytes for table in leafmap],
        }
        reference["snapshot"] = rig.seed(leafmap=leafmap, tracker=tracker)
        return reference

    def test_same_data_order_and_accounting(self, entry, rig, clock):
        tracker = MemoryTracker()
        reference = self.seed_two_tables(rig, clock, tracker)
        resident = tracker.in_region("shm")  # the leaf, as its segments hold it
        tracker.reset_peak()
        engine = rig.engine(tracker=tracker)
        restored = fresh_map(clock)
        report = run_entry(entry, engine, restored)
        assert report.method is rig.method
        assert report.lazy == (entry == "drain")
        assert ("memory_serving" in report.leaf_states) == (
            entry == "drain" and rig.source == "shm"
        )
        assert restored.snapshot_rows() == reference["snapshot"]
        assert {
            table.name: [block.content_key() for block in table.blocks]
            for table in restored
        } == reference["order"]
        for counter in ("tables", "row_blocks", "rbc_copies", "bytes_copied", "rows"):
            assert getattr(report, counter) == reference[counter], counter
        # Balanced, and nothing left behind (the shm_namespace fixture
        # asserts /dev/shm holds nothing of ours at teardown).
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(reference["heap"])
        assert not engine.shm_state_exists()
        if rig.source == "shm":
            # Pages go back as the blocks below them come home, and each
            # segment with its table: the resident data plus the block
            # in flight and the part-page under the next one, on both
            # entries (TestPagesGoBack scales this past one page).
            largest = max(block.nbytes for table in restored for block in table.blocks)
            assert resident <= tracker.peak_total <= resident + largest + mmap.PAGESIZE

    def test_second_fall_keeps_the_first_reason(self, entry, rig, clock, monkeypatch):
        snapshot = rig.seed()
        engine = rig.engine()
        # The first block's charge, then the snapshot rung's first table's.
        recorder = fail_block(monkeypatch)
        recorder.fail(kind="allocate", target="heap", exc=CorruptionError("injected snapshot fault"))
        restored = fresh_map(clock)
        report = run_entry(entry, engine, restored)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy
        assert report.failure_reason == "CorruptionError: injected block fault"
        assert restored.snapshot_rows() == snapshot
