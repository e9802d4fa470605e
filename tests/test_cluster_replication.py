"""The replica recovery tier: wire protocol, ladder fallback, failover.

Four angles on the new rung:

- **Wire round trip** (property): a sealed block crossing the framed
  protocol arrives byte-identical to ``RowBlock.pack`` — dictionary and
  float codecs included — for arbitrary table contents.
- **Fault sweep**: the connection dies at every protocol phase
  (handshake, mid-stream, mid-block, post-adopt) and the leaf must land
  on the local disk rungs all-or-nothing: tracker balanced, partial
  attempt counters preserved, rows identical to an unfaulted restore.
- **Cluster failover**: queries issued while a leaf restarts return
  *complete* results — the aggregator substitutes the standby.
- **Catalog plumbing**: ingest mirroring keeps the standby
  digest-identical, and sessions survive concurrent streams.
"""

from __future__ import annotations

import socket
import threading
import uuid

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import replication
from repro.cluster.cluster import Cluster
from repro.cluster.replication import (
    FRAME_BLOCK,
    FRAME_GET,
    FRAME_HELLO,
    ReplicaBlockServer,
    ReplicaFetchSession,
    recv_frame,
    send_frame,
    snapshot_leafmap,
)
from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.errors import CorruptionError, ReplicaWireError
from repro.query.query import Aggregation, Query
from repro.server.aggregator import Aggregator
from repro.server.leaf import LeafServer, LeafStatus
from repro.shm.layout import packed_block_chunks
from repro.shm.metadata import LeafMetadata
from repro.util.checksum import rows_digest
from repro.util.clock import ManualClock
from repro.util.memtrack import MemoryTracker
from repro.workloads import service_requests
from tests.crashpoints import Recorder

# Rows exercising every codec: dictionary (strings), float, int, list.
row_strategy = st.fixed_dictionaries(
    {"time": st.integers(min_value=0, max_value=2**40)},
    optional={
        "host": st.sampled_from(["a", "bb", "ccc", ""]),
        "value": st.floats(allow_nan=False, width=32),
        "count": st.integers(min_value=-(2**40), max_value=2**40),
        "tags": st.lists(st.sampled_from(["x", "y", "zz"]), max_size=3),
    },
)

tables_strategy = st.dictionaries(
    st.sampled_from(["alpha", "beta", "gamma"]),
    st.lists(row_strategy, min_size=1, max_size=40),
    min_size=1,
    max_size=3,
)


def build_map(tables) -> LeafMap:
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=16)
    for name, rows in tables.items():
        leafmap.get_or_create(name).add_rows(rows)
    leafmap.seal_all()
    return leafmap


class TestWireRoundTripProperty:
    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tables=tables_strategy)
    def test_framed_block_is_byte_identical(self, tables):
        """Sealed block -> wire frame -> remote decode is the identity."""
        leafmap = build_map(tables)
        client, server = socket.socketpair()
        try:
            for table in leafmap:
                for block in table.blocks:
                    packed = block.pack()
                    chunks = packed_block_chunks(block)
                    assert b"".join(bytes(c) for c in chunks) == packed
                    send_frame(server, FRAME_BLOCK, *chunks)
                    kind, payload = recv_frame(client)
                    assert kind == FRAME_BLOCK
                    assert payload == packed
                    remote = RowBlock.unpack(payload, copy=True)
                    remote.verify()
                    assert remote.pack() == packed
                    assert remote.to_rows() == block.to_rows()
                    assert rows_digest(remote.to_rows()) == rows_digest(
                        block.to_rows()
                    )
        finally:
            client.close()
            server.close()

    def test_session_fetch_matches_pack_over_tcp(self):
        """The full server/session path, dictionary + float columns."""
        leafmap = build_map(
            {
                "events": [
                    {"time": i, "host": f"h{i % 3}", "value": i / 7}
                    for i in range(64)
                ]
            }
        )
        server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        session = ReplicaFetchSession(server.address, streams=3)
        try:
            blocks = session.blocks()
            table = leafmap.get_table("events")
            assert len(blocks) == table.block_count
            for desc in blocks:
                payload = session.fetch(desc.table, desc.index)
                assert payload == table.blocks[desc.index].pack()
                assert desc.size == len(payload)
            # fetch_many covers the pipelined path with the same bytes.
            got: dict[int, bytes] = {}
            session.fetch_many(
                [(d.table, d.index) for d in blocks],
                lambda _t, i, p: got.__setitem__(i, p),
                window=4,
            )
            for desc in blocks:
                assert got[desc.index] == table.blocks[desc.index].pack()
        finally:
            session.close()
            server.close()

    def test_close_closes_every_socket_when_the_bye_send_raises(self, monkeypatch):
        """A BYE that fails with anything but a wire error (the crash
        sweep's injected ``send`` fault) must not skip the closes."""
        leafmap = build_map({"events": [{"time": i} for i in range(8)]})
        server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        session = ReplicaFetchSession(server.address, streams=3)
        try:

            def failing_send(*args):
                raise RuntimeError("injected send fault")

            monkeypatch.setattr(replication, "send_frame", failing_send)
            with pytest.raises(RuntimeError, match="injected"):
                session.close()
            assert len(session._sockets) == 3
            assert all(sock.fileno() == -1 for sock in session._sockets)
        finally:
            server.close()


def populated(clock):
    leafmap = LeafMap(clock=clock, rows_per_block=32)
    leafmap.get_or_create("events").add_rows(
        [
            {"time": 1000 + i, "host": f"h{i % 5}", "value": i / 3}
            for i in range(300)
        ]
    )
    leafmap.get_or_create("metrics").add_rows(
        [{"time": 2000 + i, "count": i} for i in range(150)]
    )
    leafmap.seal_all()
    return leafmap


def synced_state(tmp_path, clock):
    """A leafmap, its synced backup, and a block server mirroring it."""
    leafmap = populated(clock)
    backup = DiskBackup(tmp_path / "backup")
    backup.sync_leafmap(leafmap)
    server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
    return leafmap, backup, server


def make_engine(shm_namespace, backup, server, clock, tracker, streams=2):
    engine = RestartEngine(
        "7",
        namespace=shm_namespace,
        backup=backup,
        tracker=tracker,
        clock=clock,
    )
    engine.replica_source = lambda: ReplicaFetchSession(
        server.address, streams=streams
    )
    return engine


#: Wire windows, by the side effect a raise replaces: the HELLO, the
#: first GET, a BLOCK frame between its header and its payload (the
#: third payload: two catalogs come first, one per stream), and the
#: first block adopted after the first table ("events") is home.
WIRE_WINDOWS = {
    "replica:handshake": lambda source: dict(kind="send", target=str(FRAME_HELLO)),
    "replica:stream": lambda source: dict(kind="send", target=str(FRAME_GET)),
    "replica:block": lambda source: dict(kind="recv", target="payload", nth=3),
    "replica:adopt": lambda source: dict(
        kind="allocate", target="heap", nth=source.get_table("events").block_count + 1
    ),
}


class TestReplicaFaultSweep:
    def test_unfaulted_wire_restore_is_identity(
        self, shm_namespace, tmp_path, clock
    ):
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        assert report.method is RecoveryMethod.REPLICA
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    @pytest.mark.parametrize("point", list(WIRE_WINDOWS))
    def test_fault_lands_on_snapshot_rung_at_baseline(
        self, point, shm_namespace, tmp_path, clock, monkeypatch
    ):
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        recorder = Recorder(monkeypatch)
        recorder.fail(**WIRE_WINDOWS[point](source))
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        assert recorder.fired, "the injected fault never fired"
        assert report.fell_back_from_replica
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.failure_reason and "injected" in report.failure_reason
        assert restored.snapshot_rows() == source.snapshot_rows()
        # All-or-nothing: the tracker holds exactly the winning tier's
        # bytes, nothing from the abandoned wire attempt.
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    @pytest.mark.parametrize("point", list(WIRE_WINDOWS))
    def test_fault_with_torn_snapshot_lands_on_legacy(
        self, point, shm_namespace, tmp_path, clock, monkeypatch
    ):
        source, backup, server = synced_state(tmp_path, clock)
        victim = backup.snapshot_path("events")
        victim.write_bytes(victim.read_bytes()[:64])
        tracker = MemoryTracker()
        recorder = Recorder(monkeypatch)
        recorder.fail(**WIRE_WINDOWS[point](source))
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        assert recorder.fired
        assert report.fell_back_from_replica
        assert report.fell_back_to_legacy
        assert report.method is RecoveryMethod.DISK
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    @pytest.mark.parametrize("serving", [False, True])
    def test_shm_fault_lands_on_replica_rung(
        self, serving, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """Figure 5(b)'s middle rung: a fault mid-copy out of shared memory
        walks to the live standby before any disk rung, blocking
        (MEMORY_RECOVERY -> REPLICA_RECOVERY) or serving (MEMORY_SERVING ->
        REPLICA_RECOVERY)."""
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            engine.backup_to_shm(populated(clock))
            # The first block out of shared memory dies before it is charged.
            recorder = Recorder(monkeypatch)
            recorder.fail(kind="allocate", target="heap")
            restored = LeafMap(clock=clock, rows_per_block=32)
            if serving:
                handle = engine.begin_lazy_restore(restored)
                handle.drain()
                report = handle.report
            else:
                report = engine.restore(restored)
        finally:
            server.close()
        assert recorder.fired
        assert report.fell_back_to_disk and not report.fell_back_from_replica
        assert report.method is RecoveryMethod.REPLICA
        first = "memory_serving" if serving else "memory_recovery"
        assert report.leaf_states[-3:] == [first, "replica_recovery", "alive"]
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    def test_late_fault_keeps_the_attempt_counters(
        self, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """A fault after the first table adopted must surface how far the
        wire attempt got before the rungs below discarded it."""
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        Recorder(monkeypatch).fail(**WIRE_WINDOWS["replica:adopt"](source))
        try:
            engine = make_engine(shm_namespace, backup, server, clock, tracker)
            restored = LeafMap(clock=clock, rows_per_block=32)
            report = engine.restore(restored)
        finally:
            server.close()
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        attempt = report.attempt(RecoveryMethod.REPLICA)
        assert attempt.tables == 1
        assert attempt.blocks == source.get_table("events").block_count
        assert attempt.bytes > 0
        assert restored.snapshot_rows() == source.snapshot_rows()

    @pytest.mark.parametrize(
        "point, entered", [("replica:handshake", False), ("replica:stream", True)]
    )
    def test_only_a_fall_from_inside_the_rung_is_a_fall_to_disk(
        self, point, entered, shm_namespace, tmp_path, clock, monkeypatch
    ):
        """``fell_back_to_disk`` says a rung the leaf had entered fell: a
        handshake that fell never entered REPLICA_RECOVERY, so it sets
        ``fell_back_from_replica`` alone; a stream fault out of the
        published wire driver sets both."""
        source, backup, server = synced_state(tmp_path, clock)
        Recorder(monkeypatch).fail(
            **WIRE_WINDOWS[point](source), exc=CorruptionError(f"injected {point} fault")
        )
        try:
            engine = make_engine(shm_namespace, backup, server, clock, MemoryTracker())
            report = engine.restore(LeafMap(clock=clock, rows_per_block=32))
        finally:
            server.close()
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.fell_back_from_replica
        assert report.fell_back_to_disk is entered
        assert ("replica_recovery" in report.leaf_states) is entered
        assert report.attempt(RecoveryMethod.REPLICA).reason == (
            f"CorruptionError: injected {point} fault"
        )

    def test_connection_killed_mid_stream_by_server_close(
        self, shm_namespace, tmp_path, clock
    ):
        """A real dead connection (not an injected raise): the server
        vanishes between session open and the block pulls."""
        source, backup, server = synced_state(tmp_path, clock)
        tracker = MemoryTracker()
        engine = RestartEngine(
            "7",
            namespace=shm_namespace,
            backup=backup,
            tracker=tracker,
            clock=clock,
        )

        def half_dead_session():
            session = ReplicaFetchSession(server.address, streams=2)
            server.close()  # every subsequent GET dies on the wire
            return session

        engine.replica_source = half_dead_session
        restored = LeafMap(clock=clock, rows_per_block=32)
        report = engine.restore(restored)
        assert report.fell_back_from_replica
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)

    def test_serve_path_handshake_fault_still_serves_from_disk(
        self, shm_namespace, tmp_path, clock
    ):
        """Serve-while-restoring with a dead replica: the leaf must still
        come up (from the disk rungs) and answer queries."""
        primary = LeafServer(
            "p0",
            backup=DiskBackup(tmp_path / "p0"),
            namespace=shm_namespace,
            rows_per_block=32,
        )
        primary.start()
        data = list(service_requests(600))
        primary.add_rows("service_requests", data)
        primary.leafmap.seal_all()
        primary.sync_to_disk()
        baseline = rows_digest(primary.leafmap.snapshot_rows())

        def dead_standby():
            raise ReplicaWireError("injected handshake fault")

        primary.engine.replica_source = dead_standby
        primary.crash()
        primary.start(serve_while_restoring=True, sweep=False)
        primary.wait_restored()
        report = primary.last_restart_report
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert rows_digest(primary.leafmap.snapshot_rows()) == baseline
        assert primary.status is LeafStatus.ALIVE


    @pytest.mark.parametrize("serve_while_restoring", [False, True])
    def test_malformed_catalog_means_no_replica_on_every_path(
        self, serve_while_restoring, shm_namespace, tmp_path, clock
    ):
        """Anything odd -> disk: a version-skewed catalog surfaces as a
        KeyError out of the handshake, not a wire error; neither the
        blocking rung nor the serving one may let it fail the start."""
        primary = LeafServer(
            "p0",
            backup=DiskBackup(tmp_path / "p0"),
            namespace=shm_namespace,
            rows_per_block=32,
        )
        primary.start()
        primary.add_rows("service_requests", list(service_requests(600)))
        primary.leafmap.seal_all()
        primary.sync_to_disk()
        baseline = rows_digest(primary.leafmap.snapshot_rows())

        def skewed_source():
            raise KeyError("rows_ingested")

        primary.engine.replica_source = skewed_source
        primary.crash()
        primary.start(serve_while_restoring=serve_while_restoring, sweep=False)
        report = primary.wait_restored()
        assert primary.status is LeafStatus.ALIVE
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.fell_back_from_replica
        assert report.failure_reason == "KeyError: 'rows_ingested'"
        assert rows_digest(primary.leafmap.snapshot_rows()) == baseline

    def test_session_is_closed_when_the_directory_never_goes_up(
        self, dirty_shm_namespace, tmp_path, clock
    ):
        """Between a live session and a published directory sits the
        discard of this leaf's stale shm; if that raises, the session
        (sockets + the standby's pinned snapshot) must not leak — the
        leaf lands on disk with the tracker balanced."""
        source, backup, server = synced_state(tmp_path, clock)
        server.close()  # the stub below stands in for the wire
        tracker = MemoryTracker()
        engine = RestartEngine(
            "7",
            namespace=dirty_shm_namespace,
            backup=backup,
            tracker=tracker,
            clock=clock,
        )
        # Stale local shm: backed up, then distrusted (valid bit down).
        stale = LeafMap(clock=clock, rows_per_block=32)
        stale.get_or_create("events").add_rows([{"time": 1, "host": "old"}])
        RestartEngine("7", namespace=dirty_shm_namespace, clock=clock).backup_to_shm(
            stale
        )
        meta = LeafMetadata.attach(dirty_shm_namespace, "7")
        meta.set_valid(False)
        meta.close()

        class StubSession:
            tables = ()
            closed = 0

            def close(self):
                self.closed += 1

        session = StubSession()
        engine.replica_source = lambda: session

        def refuse(meta):
            raise OSError("injected: cannot unlink the stale segments")

        engine._discard_shm_tracked = refuse
        restored = LeafMap(clock=clock, rows_per_block=32)
        try:
            handle = engine.begin_lazy_restore(restored)
        finally:
            del engine._discard_shm_tracked
            engine.discard_shm()
        assert session.closed == 1
        assert handle.done and handle.error is None
        assert handle.report.fell_back_from_replica
        assert handle.report.failure_reason.startswith("OSError: injected")
        assert handle.report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored.snapshot_rows() == source.snapshot_rows()
        assert tracker.in_region("shm") == 0
        assert tracker.in_region("heap") == sum(t.nbytes for t in restored)


def build_cluster(tmp_path, namespace: str) -> Cluster:
    return Cluster(
        2,
        tmp_path / "cluster",
        leaves_per_machine=2,
        namespace=namespace,
        rows_per_block=64,
        replication=True,
    )


COUNT = Query(table="events", aggregations=(Aggregation("count"),))


def total_count(result) -> int:
    assert len(result.rows) == 1
    return result.rows[0].values["count(*)"]


class TestClusterFailover:
    def test_mirror_keeps_standby_digest_identical(self, tmp_path):
        namespace = f"reprorep-{uuid.uuid4().hex[:8]}"
        cluster = build_cluster(tmp_path, namespace)
        try:
            cluster.start_all()
            cluster.ingest(
                "events",
                [{"time": 1000 + i, "host": f"h{i % 7}"} for i in range(2000)],
                batch_rows=100,
            )
            assert cluster.replica_catalog.batches_mirrored > 0
            for leaf in cluster.leaves:
                replica = cluster.replica_catalog.replica_for(leaf.leaf_id)
                assert replica is not None
                assert rows_digest(
                    replica.leafmap.snapshot_rows()
                ) == rows_digest(leaf.leafmap.snapshot_rows())
        finally:
            cluster.close()

    def test_queries_complete_during_restart_window(self, tmp_path):
        """The acceptance test: no partial results at any point of a
        leaf's crash -> failover -> wire restore -> alive cycle."""
        namespace = f"reprorep-{uuid.uuid4().hex[:8]}"
        cluster = build_cluster(tmp_path, namespace)
        try:
            cluster.start_all()
            n_rows = 2000
            cluster.ingest(
                "events",
                [{"time": 1000 + i, "host": f"h{i % 7}"} for i in range(n_rows)],
                batch_rows=100,
            )
            cluster.sync_all()
            before = cluster.query(COUNT)
            assert before.leaves_responded == before.leaves_total
            assert total_count(before) == n_rows

            victim = cluster.leaves[0]
            machine = cluster.machine_of(victim)
            victim.crash()

            # Down: the aggregator must substitute the standby.
            down = cluster.query(COUNT)
            assert down.leaves_responded == down.leaves_total
            assert total_count(down) == n_rows
            assert machine.aggregator.failovers >= 1

            # Restarting: the leaf serves mid-restore over the wire; a
            # background storm of queries must stay complete throughout.
            results = []

            def storm():
                for _ in range(20):
                    results.append(cluster.query(COUNT))

            storm_thread = threading.Thread(target=storm)
            storm_thread.start()
            victim.start(serve_while_restoring=True)
            victim.wait_restored()
            storm_thread.join()
            for result in results:
                assert result.leaves_responded == result.leaves_total
                assert total_count(result) == n_rows

            assert victim.last_restart_report.method is RecoveryMethod.REPLICA
            after = cluster.query(COUNT)
            assert total_count(after) == n_rows
            # A flat aggregator with the same router agrees.
            flat = Aggregator(
                cluster.leaves, replica_router=cluster.replica_catalog.replica_for
            ).query(COUNT)
            assert total_count(flat) == n_rows
        finally:
            cluster.close()

    def test_failover_unavailable_when_both_down(self, tmp_path):
        namespace = f"reprorep-{uuid.uuid4().hex[:8]}"
        cluster = build_cluster(tmp_path, namespace)
        try:
            cluster.start_all()
            cluster.ingest(
                "events",
                [{"time": 1000 + i} for i in range(400)],
                batch_rows=100,
            )
            victim = cluster.leaves[0]
            replica = cluster.replica_catalog.replica_for(victim.leaf_id)
            victim.crash()
            replica.crash()
            result = cluster.query(COUNT)
            assert result.leaves_responded == result.leaves_total - 1
            assert 0 < result.coverage < 1
        finally:
            cluster.close()

    def test_catalog_close_stops_serving_sessions(self, tmp_path):
        namespace = f"reprorep-{uuid.uuid4().hex[:8]}"
        cluster = build_cluster(tmp_path, namespace)
        try:
            cluster.start_all()
            cluster.ingest(
                "events",
                [{"time": 1000 + i} for i in range(400)],
                batch_rows=100,
            )
            victim = cluster.leaves[0]
            source = victim.engine.replica_source
            session = source()
            assert session is not None
            session.close()
        finally:
            cluster.close()
        # After close the provider degrades to "no replica" — the ladder
        # falls through instead of hanging on a dead socket.
        assert source() is None