"""Version skew, one test per rung (paper §4.2: anything odd → disk).

Compressed payloads changed codec (raw deflate replaced a from-scratch
LZ), so every format that carries them was bumped: ``RBC_VERSION``,
``SHM_LAYOUT_VERSION`` and ``WIRE_VERSION``; the row log gained a
deflated chunk kind and kept reading the old one.  Each test below plays
the older build's part — its version numbers written where it wrote
them — and checks that the new build refuses that rung at its version
check, not at a decode, and lands on the rung below with the same rows.
The expiry record changed too (a count alone, no cutoff), but the new
build reads what the older one wrote, so that row bumps nothing and
stays on its rung.  So did the snapshot chain's manifest record (a link
records what it appends, no drop lists or sequence numbers): the
snapshot files are unchanged and nothing is bumped, but a chain an older
build recorded lands on legacy replay, and the next sync writes a base.
The manifest is now published compact where the older build indented
it; its content is the same and JSON reads either, so that row bumps
nothing and stays on its rung.
Segments are now opened and mapped without the stdlib's
``SharedMemory`` and its resource tracker; a segment is the same POSIX
object, name and bytes either way, so the older build's segments
attach, read and unlink in this build and this build's in the older
one.  That row bumps nothing and is the paper's case: the old binary
writes, the new one reads.
A GET now names its block in binary (the table's ordinal in the
session catalog, then the block index) where the older build sent JSON,
so ``WIRE_VERSION`` went 2 → 3 and nothing else moved: ``RBC_VERSION``,
``SHM_LAYOUT_VERSION`` and the disk formats are the same.  The wire
rows run both ways: an older standby is refused at its first frame and
the leaf lands on the snapshot rung, and an older primary's HELLO to
this build's standby has its connection closed, after which the
standby serves the next current session.
Two constants no change has bumped yet have rows too, so a bump finds
its refusal already tested: ``SHMDISK_FORMAT_VERSION`` (the snapshot
file envelope) and ``METADATA_VERSION`` (the leaf metadata block).
"""

from __future__ import annotations

import json
import socket
import struct
import subprocess
import sys
import textwrap
import threading

import pytest

from repro.cluster.replication import (
    FRAME_CATALOG,
    FRAME_HELLO,
    WIRE_MAGIC,
    WIRE_VERSION,
    ReplicaBlockServer,
    ReplicaFetchSession,
    snapshot_leafmap,
)
from repro.columnstore import rbc
from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk import backup as backup_module
from repro.disk import shmformat
from repro.disk.backup import DiskBackup
from repro.disk.format import CHUNK_MAGIC, DEFLATED_CHUNK_MAGIC
from repro.disk.replay import replay_leafmap
from repro.shm import layout, metadata
from repro.shm.segment import ShmSegment, segment_exists
from repro.util.checksum import crc32_of, rows_digest
from repro.util.memtrack import MemoryTracker
from tests.conftest import SHM_DIR, check_counters

OLD_RBC_VERSION = rbc.RBC_VERSION - 1
OLD_LAYOUT_VERSION = layout.SHM_LAYOUT_VERSION - 1
OLD_WIRE_VERSION = WIRE_VERSION - 1
OLD_SHMDISK_FORMAT_VERSION = shmformat.SHMDISK_FORMAT_VERSION - 1
OLD_METADATA_VERSION = metadata.METADATA_VERSION - 1


def ingest(leafmap: LeafMap, start: int, count: int) -> None:
    leafmap.get_or_create("events").add_rows(
        {"time": start + i, "host": f"web{i % 7}", "req": f"id-{start + i:06d}", "ms": i / 8}
        for i in range(count)
    )
    leafmap.get_or_create("metrics").add_rows(
        {"time": start + i, "count": i, "tags": ["a", "b"][: i % 3]} for i in range(count // 2)
    )


def old_leaf(clock, backup) -> tuple[LeafMap, str]:
    """A leaf sealed and synced; returns it and its row digest."""
    leafmap = LeafMap(clock=clock, rows_per_block=64)
    ingest(leafmap, 1000, 320)
    leafmap.seal_all()
    backup.sync_leafmap(leafmap)
    return leafmap, rows_digest(leafmap.snapshot_rows())


def restore(namespace, backup, clock, tracker=None, **kwargs):
    restored = LeafMap(clock=clock, rows_per_block=64)
    engine = RestartEngine(
        "0", namespace=namespace, backup=backup, clock=clock, tracker=tracker, **kwargs
    )
    report = engine.restore(restored)
    check_counters(restored)
    return engine, report, rows_digest(restored.snapshot_rows())


class TestSharedMemoryRung:
    def test_old_layout_shm_lands_on_the_snapshot_rung(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """The old build's segments say layout 1 in the metadata and in
        every table preamble: the valid-bit check distrusts them before
        a byte is read, discards them through the tracker, and the
        (current) disk snapshot serves the same rows."""
        leafmap, digest = old_leaf(clock, backup)
        monkeypatch.setattr(layout, "SHM_LAYOUT_VERSION", OLD_LAYOUT_VERSION)
        tracker = MemoryTracker()
        RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock, tracker=tracker,
            layout_version=OLD_LAYOUT_VERSION,
        ).backup_to_shm(leafmap)
        monkeypatch.undo()
        assert tracker.in_region("shm") > 0
        engine, report, restored = restore(shm_namespace, backup, clock, tracker=tracker)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored == digest
        assert not engine.shm_state_exists()
        assert tracker.in_region("shm") == 0

    def test_old_metadata_version_lands_on_the_snapshot_rung(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """The old build's metadata block carries its own version: the
        valid-bit check refuses it at that field, every segment is
        unlinked from /dev/shm through the tracker, and the disk
        snapshot serves the same rows."""
        leafmap, digest = old_leaf(clock, backup)
        monkeypatch.setattr(metadata, "METADATA_VERSION", OLD_METADATA_VERSION)
        tracker = MemoryTracker()
        RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock, tracker=tracker
        ).backup_to_shm(leafmap)
        monkeypatch.undo()
        assert tracker.in_region("shm") > 0
        engine, report, restored = restore(shm_namespace, backup, clock, tracker=tracker)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored == digest
        assert not engine.shm_state_exists()
        assert tracker.in_region("shm") == 0
        assert not [p for p in SHM_DIR.iterdir() if p.name.startswith(shm_namespace)]


def older_build(body: str) -> None:
    """Run ``body`` after the older build's segment calls: the stdlib's
    ``SharedMemory``, each name unregistered from its resource tracker at
    create and attach, and registered again right before an unlink."""
    prelude = textwrap.dedent(
        """
        from multiprocessing import resource_tracker, shared_memory

        def untrack(raw):
            resource_tracker.unregister(raw._name, "shared_memory")

        def create(name, size):
            raw = shared_memory.SharedMemory(name=name, create=True, size=size)
            untrack(raw)
            return raw

        def attach(name):
            raw = shared_memory.SharedMemory(name=name, create=False)
            untrack(raw)
            return raw

        def unlink(raw):
            raw.close()
            resource_tracker.register(raw._name, "shared_memory")
            raw.unlink()
        """
    )
    result = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0 and result.stderr == "", result.stderr


class TestSegmentHandles:
    PAYLOAD = b"written by one build, read by the other"

    def test_an_older_builds_segment_attaches_reads_and_unlinks(self, shm_namespace):
        name = f"{shm_namespace}.old-writes"
        older_build(
            f"""
            raw = create({name!r}, 64)
            raw.buf[:{len(self.PAYLOAD)}] = {self.PAYLOAD!r}
            raw.close()
            """
        )
        segment = ShmSegment.attach(name)
        assert segment.size == 64
        assert bytes(segment.read_at(0, len(self.PAYLOAD))) == self.PAYLOAD
        segment.unlink()
        assert not segment_exists(name)

    def test_this_builds_segment_attaches_reads_and_unlinks_in_the_older_one(
        self, shm_namespace
    ):
        name = f"{shm_namespace}.new-writes"
        segment = ShmSegment.create(name, 64)
        segment.write_at(0, self.PAYLOAD)
        segment.close()
        older_build(
            f"""
            raw = attach({name!r})
            assert bytes(raw.buf[:{len(self.PAYLOAD)}]) == {self.PAYLOAD!r}
            unlink(raw)
            """
        )
        assert not segment_exists(name)


class TestSnapshotRung:
    def test_old_rbc_version_snapshot_chain_falls_to_legacy_replay(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """The old build sealed RBC version 1 into blocks and wrote them
        into layout-1 snapshot bodies; the body's version refuses the
        chain before any block is unpacked, and the row log replays."""
        monkeypatch.setattr(rbc, "RBC_VERSION", OLD_RBC_VERSION)
        monkeypatch.setattr(layout, "SHM_LAYOUT_VERSION", OLD_LAYOUT_VERSION)
        leafmap, digest = old_leaf(clock, backup)
        assert backup.snapshots_ready()
        monkeypatch.undo()
        _, report, restored = restore(shm_namespace, backup, clock)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy
        assert f"layout version {OLD_LAYOUT_VERSION}" in report.failure_reason
        assert restored == digest

    def test_old_file_format_chain_falls_to_legacy_replay(
        self, shm_namespace, backup, clock, monkeypatch
    ):
        """Chain files whose envelope says the old format version: the
        manifest still vouches for the chain, the first file read
        refuses it at its version field, and the row log replays every
        row with the counters lined up."""
        monkeypatch.setattr(shmformat, "SHMDISK_FORMAT_VERSION", OLD_SHMDISK_FORMAT_VERSION)
        leafmap, digest = old_leaf(clock, backup)
        assert backup.snapshots_ready()
        monkeypatch.undo()
        _, report, restored = restore(shm_namespace, backup, clock)
        assert report.method is RecoveryMethod.DISK
        assert report.fell_back_to_legacy
        assert (
            f"shm-format disk file version {OLD_SHMDISK_FORMAT_VERSION}"
            in report.failure_reason
        )
        assert restored == digest


    def test_a_parent_shaped_chain_lands_on_legacy_and_the_next_sync_writes_a_base(
        self, shm_namespace, backup, clock
    ):
        """The older build numbered every chain block (``start_seq``,
        ``next_seq``), listed expired blocks in ``dropped``, wrote a
        link without a file for a generation that only expired, and kept
        an expiry cutoff next to the count.  This build never reads such
        a chain: legacy replay restores the same rows, the next sync
        writes a base and drops the keys the count replaced, and the
        restart after that takes the snapshot rung."""
        leafmap, _ = old_leaf(clock, backup)
        ingest(leafmap, 2000, 128)
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        assert leafmap.get_table("events").expire(1128) == 128  # two base blocks
        digest = rows_digest(leafmap.snapshot_rows())
        path = backup.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest.values():
            seq = 0
            for link in entry["chain"]:
                link.update(start_seq=seq, dropped=[])
                seq += link["blocks"]
            entry.update(next_seq=seq, expire_before=1, expire_applied=1, expire_gen=1)
        events = manifest["events"]
        gen = events["sync_gen"] + 1
        events["chain"].append(
            {
                "gen": gen,
                "file": None,
                "kind": "delta",
                "start_seq": events["next_seq"],
                "blocks": 0,
                "keys": [],
                "dropped": [0, 1],
                "rows_ingested": events["chain"][-1]["rows_ingested"],
                "rows_expired": 128,
            }
        )
        events.update(sync_gen=gen, snapshot_gen=gen, rows_expired=128)
        path.write_text(json.dumps(manifest))

        reopened = DiskBackup(backup.directory)
        _, report, restored = restore(shm_namespace, reopened, clock)
        assert report.method is RecoveryMethod.DISK
        (skip,) = [event for event in report.events if event.kind == "skip"]
        assert skip.reason == "table 'events': chain written by an older build"
        assert restored == digest

        replayed = LeafMap(clock=clock, rows_per_block=64)
        RestartEngine("0", namespace=shm_namespace, backup=reopened, clock=clock).restore(replayed)
        reopened.sync_leafmap(replayed)
        (link,) = reopened.snapshot_chain("events")
        assert link["kind"] == "base" and "dropped" not in link
        superseded = {"next_seq", "expire_before", "expire_applied", "expire_gen"}
        for entry in json.loads(path.read_text()).values():
            assert not superseded & entry.keys()
        # Empty drop lists are the same record as none: that chain reads.
        assert reopened.snapshot_valid("metrics")
        _, report, restored = restore(shm_namespace, DiskBackup(backup.directory), clock)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored == digest

    def test_a_bare_snapshot_gen_manifest_lands_on_legacy_replay(
        self, shm_namespace, backup, clock
    ):
        """The build before chains recorded one ``snapshot_gen`` and a
        single base file.  Nothing is made up for it: the snapshot rung
        is passed over and the row log replays the same rows."""
        _, digest = old_leaf(clock, backup)
        path = backup.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        for entry in manifest.values():
            del entry["chain"]
        path.write_text(json.dumps(manifest))
        reopened = DiskBackup(backup.directory)
        entry = reopened._manifest["events"]
        assert entry["snapshot_gen"] == entry["sync_gen"]
        _, report, restored = restore(shm_namespace, reopened, clock)
        assert report.method is RecoveryMethod.DISK
        assert not report.fell_back_to_legacy
        (skip,) = [event for event in report.events if event.kind == "skip"]
        assert skip.reason == "table 'events': no snapshot chain"
        assert restored == digest


class TestExpiryRecord:
    @pytest.mark.parametrize("snapshot_tier", [True, False], ids=["snapshot", "legacy"])
    def test_older_builds_cutoff_fields_restore_the_same_rows(
        self, shm_namespace, backup, clock, snapshot_tier
    ):
        """The older build recorded an expiry run as a cutoff too —
        ``expire_before``, ``expire_applied`` and ``expire_gen`` next to
        ``rows_expired``.  This build reads the count and ignores the
        rest (its next sync drops it), so the manifest stays readable
        and no version moves: one whose chain predates its last expiry
        run restores the same rows on the snapshot rung and on legacy
        replay."""
        leafmap, _ = old_leaf(clock, backup)
        table = leafmap.get_table("events")
        cutoff = 1000 + 128  # the first two blocks: a prefix, in order
        assert table.expire(cutoff) == 128
        backup.record_expiry("events", table.total_rows_expired)
        path = backup.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        entry = manifest["events"]
        entry.update(expire_before=cutoff, expire_applied=cutoff, expire_gen=entry["sync_gen"])
        path.write_text(json.dumps(manifest))
        reopened = DiskBackup(backup.directory, snapshots=snapshot_tier)
        assert reopened.snapshots_ready()
        _, report, restored = restore(shm_namespace, reopened, clock)
        assert report.method is (
            RecoveryMethod.DISK_SNAPSHOT if snapshot_tier else RecoveryMethod.DISK
        )
        assert not report.fell_back_to_legacy
        assert restored == rows_digest(leafmap.snapshot_rows())


class TestManifestEncoding:
    def test_an_indented_manifest_loads_and_the_next_publish_is_compact(
        self, shm_namespace, backup, clock
    ):
        """The older build published its manifest with ``indent=1``; this
        one writes it compact, through json's C encoder.  The content is
        the same and every reader parses either form, so nothing bumps:
        the indented manifest restores on the snapshot rung, and the next
        publish rewrites it compact with only its change in it."""
        leafmap, digest = old_leaf(clock, backup)
        path = backup.directory / "manifest.json"
        manifest = json.loads(path.read_text())
        path.write_text(json.dumps(manifest, indent=1, sort_keys=True))
        reopened = DiskBackup(backup.directory)
        _, report, restored = restore(shm_namespace, reopened, clock)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored == digest

        table = leafmap.get_table("events")
        assert table.expire(1000 + 64) == 64
        reopened.record_expiry("events", table.total_rows_expired)
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        manifest["events"]["rows_expired"] = 64
        assert json.loads(text) == manifest
        _, report, restored = restore(shm_namespace, DiskBackup(backup.directory), clock)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored == rows_digest(leafmap.snapshot_rows())


def write_old_chunk(fh, count: int, payload: bytes) -> int:
    """The older build's sync chunk: ``CHNK``, the payload stored as is."""
    fh.write(struct.pack("<IIQI", CHUNK_MAGIC, count, len(payload), crc32_of(payload)))
    fh.write(payload)
    return count


class TestRowLogRung:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_old_chunks_then_new_chunks_replay_every_row(
        self, backup, clock, monkeypatch, workers
    ):
        """An upgraded leaf appends ``CHNZ`` chunks to the log its
        predecessor wrote in ``CHNK`` ones; legacy replay, serial or
        parallel, reads the whole log back."""
        leafmap = LeafMap(clock=clock, rows_per_block=64)
        monkeypatch.setattr(backup_module, "write_chunk_payload", write_old_chunk)
        ingest(leafmap, 1000, 200)
        backup.sync_leafmap(leafmap)
        monkeypatch.undo()
        ingest(leafmap, 5000, 150)  # the new build, buffered rows included
        backup.sync_leafmap(leafmap)
        log = backup.table_file("events").read_bytes()
        magics = {m for m in (CHUNK_MAGIC, DEFLATED_CHUNK_MAGIC) if struct.pack("<I", m) in log}
        assert magics == {CHUNK_MAGIC, DEFLATED_CHUNK_MAGIC}
        replayed = LeafMap(clock=clock, rows_per_block=64)
        rows = replay_leafmap(backup, replayed, workers=workers)
        assert rows == leafmap.row_count == 525
        assert replayed.snapshot_rows() == leafmap.snapshot_rows()


class OldStandby:
    """A standby of the older build: answers every HELLO with a frame
    stamped with its wire version, as its handshake would."""

    def __init__(self) -> None:
        self._server = socket.create_server(("127.0.0.1", 0))
        self.address = self._server.getsockname()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return  # closed
            with conn:
                conn.recv(1 << 16)  # the HELLO
                catalog = b'{"session": "old", "tables": []}'
                header = struct.Struct("<IHHII").pack(
                    WIRE_MAGIC, OLD_WIRE_VERSION, FRAME_CATALOG, len(catalog), crc32_of(catalog)
                )
                conn.sendall(header + catalog)

    def close(self) -> None:
        self._server.close()
        self._thread.join(timeout=5)


class TestReplicaRung:
    def test_old_wire_version_hello_is_closed_and_the_standby_serves_on(
        self, backup, clock, monkeypatch
    ):
        """An older primary's HELLO, stamped with its wire version, gets
        its connection closed without a stream thread's traceback; the
        same standby then serves a current session."""
        hooks = []
        monkeypatch.setattr(threading, "excepthook", hooks.append)
        leafmap, _ = old_leaf(clock, backup)
        server = ReplicaBlockServer(lambda: snapshot_leafmap(leafmap))
        try:
            hello = b'{"open": true}'
            header = struct.Struct("<IHHII").pack(
                WIRE_MAGIC, OLD_WIRE_VERSION, FRAME_HELLO, len(hello), crc32_of(hello)
            )
            with socket.create_connection(server.address, timeout=10) as old:
                old.sendall(header + hello)
                assert old.recv(1 << 16) == b""  # closed, nothing sent
            session = ReplicaFetchSession(server.address, streams=1)
            try:
                names = [table.name for table in session.tables]
                assert names == sorted(leafmap.table_names)
                block = leafmap.get_table("metrics").blocks[-1]
                index = leafmap.get_table("metrics").block_count - 1
                assert session.fetch("metrics", index) == block.pack()
            finally:
                session.close()
        finally:
            server.close()
        assert server.sessions_opened == 1
        assert hooks == []


    def test_old_wire_version_standby_is_refused_and_the_leaf_lands_on_disk(
        self, shm_namespace, backup, clock
    ):
        _, digest = old_leaf(clock, backup)
        standby = OldStandby()
        try:
            _, report, restored = restore(
                shm_namespace,
                backup,
                clock,
                replica_source=lambda: ReplicaFetchSession(standby.address, streams=1),
            )
        finally:
            standby.close()
        assert report.fell_back_from_replica
        assert report.failure_reason == (
            f"ReplicaWireError: unsupported wire version {OLD_WIRE_VERSION}"
        )
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert restored == digest
