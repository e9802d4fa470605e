"""Cross-module property tests: restart equivalence on arbitrary data.

Invariant 3 of DESIGN.md: for *any* table contents, heap → shared memory
→ heap and heap → disk → heap reproduce exactly the same rows, in order.
The incremental-chain property extends it: for any interleaving of
ingest (late data too), seal, expiry, sync, and *restart* — whatever
chain of base, deltas, manifest-only links, and compactions that
produces, written by however many processes — recovering through the
chain, through a fresh full snapshot of the same state, and through
legacy replay of the row log all equal the live table.  And the chain is re-joined,
not rewritten: a restart through any rung that hands back the same
sealed bytes costs the next sync no block bytes at all.
"""

import uuid

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.cluster.replication import ReplicaCatalog
from repro.columnstore.leafmap import LeafMap
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk.backup import DiskBackup
from repro.disk.recovery import recover_leafmap
from repro.disk.shmformat import read_table_snapshot
from repro.server.leaf import LeafServer
from repro.util.checksum import rows_digest
from repro.util.clock import ManualClock
from tests.conftest import check_counters, restore_from_chain

# Rows with every column type, ragged on purpose.
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


def build_map(tables):
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=16)
    for name, rows in tables.items():
        leafmap.get_or_create(name).add_rows(rows)
    leafmap.seal_all()
    return leafmap


class TestRestartEquivalenceProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tables=tables_strategy)
    def test_shm_roundtrip_is_identity(self, tables, tmp_path_factory):
        namespace = f"reprohyp-{uuid.uuid4().hex[:10]}"
        clock = ManualClock(0.0)
        leafmap = build_map(tables)
        snapshot = leafmap.snapshot_rows()
        engine = RestartEngine("0", namespace=namespace, clock=clock)
        engine.backup_to_shm(leafmap)
        restored = LeafMap(clock=clock, rows_per_block=16)
        report = RestartEngine("0", namespace=namespace, clock=clock).restore(restored)
        assert report.method is RecoveryMethod.SHARED_MEMORY
        assert restored.snapshot_rows() == snapshot
        check_counters(restored)

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(tables=tables_strategy)
    def test_disk_roundtrip_is_identity(self, tables, tmp_path_factory):
        clock = ManualClock(0.0)
        backup = DiskBackup(tmp_path_factory.mktemp("hyp-backup"))
        leafmap = build_map(tables)
        snapshot = leafmap.snapshot_rows()
        backup.sync_leafmap(leafmap)
        namespace = f"reprohyp-{uuid.uuid4().hex[:10]}"
        restored = LeafMap(clock=clock, rows_per_block=16)
        report = RestartEngine(
            "0", namespace=namespace, backup=backup, clock=clock
        ).restore(restored)
        # Which disk rung runs depends on whether every generated table
        # happened to seal evenly at the sync point; the recovered data
        # must be identical either way.
        assert report.method in (RecoveryMethod.DISK, RecoveryMethod.DISK_SNAPSHOT)
        assert restored.snapshot_rows() == snapshot
        check_counters(restored)
        legacy = LeafMap(clock=clock, rows_per_block=16)
        legacy_report = RestartEngine(
            "0",
            namespace=namespace,
            backup=DiskBackup(backup.directory, snapshots=False),
            clock=clock,
        ).restore(legacy)
        assert legacy_report.method is RecoveryMethod.DISK
        assert legacy.snapshot_rows() == snapshot
        check_counters(legacy)


# One workload step: ingest a batch, ingest a late batch (rows older than
# the newest block), seal, expire a prefix, take a sync point, ingest the
# same whole block twice (two blocks with one content key), drop the
# oldest block by size (perhaps one of two twins), or restart — a trusted
# sync point, then a new process that rebuilds the table from the chain
# and carries on under a manager that never wrote it.  Tiny chain thresholds
# on the backup force base rewrites, delta appends, and mid-sequence
# compactions to all occur within a few steps of each other.
op_strategy = st.one_of(
    st.tuples(st.just("add"), st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("late"), st.integers(min_value=1, max_value=40)),
    st.just(("seal",)),
    st.just(("sync",)),
    st.tuples(st.just("expire"), st.floats(min_value=0.0, max_value=1.0)),
    st.just(("twins",)),
    st.just(("trim",)),
    st.just(("restart",)),
)


def _full_row(t: int) -> dict:
    # Every column present in every row: block regrouping pads ragged
    # rows differently per tier, which is orthogonal to chain recovery.
    return {
        "time": t,
        "host": f"h{t % 7}",
        "value": float(t % 13) / 4,
        "tags": ["x", "y", "zz"][: 1 + t % 3],
    }


class TestIncrementalChainProperty:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(ops=st.lists(op_strategy, min_size=1, max_size=14))
    # One unsealed row synced (log only), an expiry run that spares it
    # (still buffered), then the closing seal + sync: the cutoff and the
    # snapshot link share a generation, and the link must win.
    @example(ops=[("add", 1), ("sync",), ("expire", 1.0)])
    # A late block between two newer ones, expired at a cutoff it alone
    # is below: the live table keeps all three (the oldest block still
    # stands before it), and a count trim must not eat the oldest block's
    # rows in its place.
    @example(ops=[("add", 16), ("late", 4), ("seal",), ("add", 16), ("expire", 0.25)])
    def test_chain_recovery_equals_fresh_full_snapshot(
        self, ops, tmp_path_factory
    ):
        clock = ManualClock(0.0)
        directory = tmp_path_factory.mktemp("hyp-chain")

        def manager():
            return DiskBackup(directory, max_chain_links=3, compact_churn=0.4)

        backup = manager()
        leafmap = LeafMap(clock=clock, rows_per_block=16)
        table = leafmap.get_or_create("events")
        t = 0
        for op in ops:
            if op[0] == "add":
                table.add_rows(_full_row(t + i) for i in range(op[1]))
                t += op[1]
            elif op[0] == "late":
                table.add_rows(_full_row(t // 4 + i) for i in range(op[1]))
            elif op[0] == "seal":
                leafmap.seal_all()
            elif op[0] == "sync":
                backup.sync_leafmap(leafmap)
            elif op[0] == "twins":
                leafmap.seal_all()
                rows = [_full_row(t + i) for i in range(16)]
                table.add_rows(rows)
                table.add_rows(rows)
                t += 16
                first, second = table.blocks[-2:]
                assert first.content_key() == second.content_key()
            elif op[0] == "trim":
                if table.block_count:
                    table.expire(max_bytes=table.sealed_nbytes - table.blocks[0].nbytes)
                    backup.record_expiry("events", table.total_rows_expired)
            elif op[0] == "restart":
                leafmap.seal_all()
                backup.sync_leafmap(leafmap)
                before = rows_digest(leafmap.snapshot_rows())
                backup = manager()
                leafmap = LeafMap(clock=clock, rows_per_block=16)
                restore_from_chain(backup, leafmap)
                table = leafmap.get_or_create("events")
                assert rows_digest(leafmap.snapshot_rows()) == before
                # Re-joined: the new process finds every resident block
                # in the chain it did not write, in order.
                # The chain's tip spans the table past its expired count,
                # and its last keys are the table's.
                keys = [block.content_key() for block in table.blocks]
                chain = backup.snapshot_chain("events")
                held = [key for link in chain for key in link["keys"]]
                assert held[len(held) - len(keys) :] == keys
                assert chain[-1]["rows_ingested"] - table.total_rows_expired == table.row_count
            else:
                table.expire(int(op[1] * t))
                backup.record_expiry("events", table.total_rows_expired)
        # Close the sequence at a trusted sync point.
        leafmap.seal_all()
        backup.sync_leafmap(leafmap)
        assert backup.snapshot_valid("events")
        expected = rows_digest(leafmap.snapshot_rows())

        # Chain recovery, through a reopened manager (manifest reload).
        chained = LeafMap(clock=clock, rows_per_block=16)
        restore_from_chain(DiskBackup(backup.directory), chained)
        assert rows_digest(chained.snapshot_rows()) == expected

        # A fresh full snapshot of the same state: a one-link chain
        # writes one base per snapshot point and no delta.
        full_backup = DiskBackup(tmp_path_factory.mktemp("hyp-full"), max_chain_links=1)
        full_backup.sync_leafmap(leafmap)
        assert (full_backup.stats.bases_written, full_backup.stats.deltas_written) == (1, 0)
        assert sorted(full_backup.snapshot_dir.iterdir()) == full_backup.chain_files("events")
        full = LeafMap(clock=clock, rows_per_block=16)
        restore_from_chain(full_backup, full)
        assert rows_digest(full.snapshot_rows()) == expected

        # Legacy replay of the row log trims the same count.
        legacy = LeafMap(clock=clock, rows_per_block=16)
        recover_leafmap(DiskBackup(backup.directory), legacy)
        assert rows_digest(legacy.snapshot_rows()) == expected
        check_counters(legacy)

        # Watermarks restored identically on both routes.
        assert (
            chained.get_table("events").total_rows_ingested
            == full.get_table("events").total_rows_ingested
        )
        assert (
            chained.get_table("events").total_rows_expired
            == full.get_table("events").total_rows_expired
        )


BLOCK_ROWS = 32


def _slot_rows(slot: int) -> list[dict]:
    return [
        {
            "time": 10_000 + slot * 100 + i,
            "host": f"h{(slot + i) % 5}",
            "value": (slot * BLOCK_ROWS + i) / 8,
            "tags": ["x", "y", "zz"][: 1 + i % 3],
        }
        for i in range(BLOCK_ROWS)
    ]


class TestRestartRejoinsChain:
    """sync → restart → sync writes zero block bytes; → one more block →
    sync writes that block's bytes: on every rung that hands back the
    sealed bytes the chain was written from.  Each restart is a new
    ``LeafServer`` over a new ``DiskBackup`` — nothing in memory
    survives it, as nothing survives a process."""

    RUNGS = {
        "shm_blocking": RecoveryMethod.SHARED_MEMORY,
        "shm_serving": RecoveryMethod.SHARED_MEMORY,
        "replica": RecoveryMethod.REPLICA,
        "disk_snapshot": RecoveryMethod.DISK_SNAPSHOT,
    }

    def leaf(self, name, namespace, directory, clock):
        return LeafServer(
            name,
            backup=DiskBackup(directory / f"leaf-{name}"),
            namespace=namespace,
            clock=clock,
            rows_per_block=BLOCK_ROWS,
        )

    @pytest.mark.parametrize("rung", RUNGS)
    def test_restart_costs_no_block_bytes(self, rung, shm_namespace, tmp_path, clock):
        catalog = ReplicaCatalog(streams=2) if rung == "replica" else None
        try:
            self.check(rung, catalog, shm_namespace, tmp_path, clock)
        finally:
            if catalog is not None:
                catalog.close()

    def check(self, rung, catalog, namespace, directory, clock):
        leaf = self.leaf("0", namespace, directory, clock)
        leaf.start()
        if catalog is not None:
            standby = self.leaf("0s", namespace, directory, clock)
            standby.start()
            catalog.assign("0", standby)

        def ingest(target, slot):
            rows = _slot_rows(slot)
            target.add_rows("events", rows)
            if catalog is not None:
                catalog.mirror("0", "events", rows)
            clock.advance(1.0)

        for slot in range(5):
            ingest(leaf, slot)
            leaf.sync_to_disk()  # base, then one delta per slot
        expected = rows_digest(leaf.leafmap.snapshot_rows())
        chain = leaf.backup.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base"] + ["delta"] * 4
        files = {p.name: p.stat().st_mtime_ns for p in leaf.backup.snapshot_dir.iterdir()}

        if rung.startswith("shm"):
            leaf.shutdown(use_shm=True)
        else:
            leaf.crash()
        reborn = self.leaf("0", namespace, directory, clock)
        if catalog is not None:
            reborn.engine.replica_source = catalog.session_source("0")
        if rung == "shm_serving":
            reborn.start(serve_while_restoring=True)
            report = reborn.wait_restored()
        else:
            report = reborn.start()
        assert report.method is self.RUNGS[rung]
        assert rows_digest(reborn.leafmap.snapshot_rows()) == expected
        check_counters(reborn.leafmap)
        stats = reborn.backup.stats

        # Nothing changed: the sync point is a no-op, and every resident
        # block is found in the chain another process wrote.
        reborn.sync_to_disk()
        assert stats.snapshot_bytes_written == 0
        assert (stats.bases_written, stats.deltas_written) == (0, 0)
        after = {p.name: p.stat().st_mtime_ns for p in reborn.backup.snapshot_dir.iterdir()}
        assert after == files

        # One more block: one delta holding exactly that block.
        ingest(reborn, 5)
        fresh = reborn.leafmap.get_table("events").blocks[-1]
        reborn.sync_to_disk()
        assert (stats.bases_written, stats.deltas_written) == (0, 1)
        chain = reborn.backup.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base"] + ["delta"] * 5
        assert chain[-1]["keys"] == [fresh.content_key()]
        delta_path = reborn.backup.snapshot_dir / chain[-1]["file"]
        assert stats.snapshot_bytes_written == delta_path.stat().st_size
        assert [b.pack() for b in read_table_snapshot(delta_path).blocks] == [fresh.pack()]

        # And the chain two processes wrote restores the whole table.
        expected = rows_digest(reborn.leafmap.snapshot_rows())
        reborn.crash()
        final = self.leaf("0", namespace, directory, clock)
        assert final.start().method is RecoveryMethod.DISK_SNAPSHOT
        assert rows_digest(final.leafmap.snapshot_rows()) == expected
        check_counters(final.leafmap)
        final.crash()
        if catalog is not None:
            standby.crash()

    def test_legacy_replay_costs_exactly_one_base(self, shm_namespace, tmp_path, clock):
        """The DISK rung re-seals the log into new blocks: the chain on
        disk describes none of them, and says so with one fresh base."""
        leaf = self.leaf("0", shm_namespace, tmp_path, clock)
        leaf.start()
        for slot in range(4):
            leaf.add_rows("events", _slot_rows(slot))
            clock.advance(1.0)
            leaf.sync_to_disk()
        leaf.add_rows("events", _slot_rows(4)[:5])  # buffered at the sync
        leaf.sync_to_disk()
        expected = rows_digest(leaf.leafmap.snapshot_rows())
        leaf.crash()
        clock.advance(60.0)

        reborn = self.leaf("0", shm_namespace, tmp_path, clock)
        assert reborn.start().method is RecoveryMethod.DISK
        assert rows_digest(reborn.leafmap.snapshot_rows()) == expected
        check_counters(reborn.leafmap)
        reborn.sync_to_disk()
        stats = reborn.backup.stats
        assert (stats.bases_written, stats.deltas_written) == (1, 0)
        chain = reborn.backup.snapshot_chain("events")
        assert [link["kind"] for link in chain] == ["base"]
        assert {p.name for p in reborn.backup.snapshot_dir.iterdir()} == {chain[0]["file"]}
        reborn.crash()
        final = self.leaf("0", shm_namespace, tmp_path, clock)
        assert final.start().method is RecoveryMethod.DISK_SNAPSHOT
        assert rows_digest(final.leafmap.snapshot_rows()) == expected
        check_counters(final.leafmap)
        final.crash()
