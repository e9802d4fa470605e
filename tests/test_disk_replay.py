"""Parallel legacy replay: digest identity, fallback paths, budget balance.

``replay_leafmap`` must be a drop-in sibling of ``recover_leafmap``:
identical recovered rows, blocks, and watermarks on every input — only
wall-clock may differ.  These
tests pin that equivalence on the partitioned fast path, the exact
(cutoff / byte-cap) path, and through the engine's legacy rung, plus the
footprint-budget accounting on success and on injected failure.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.table import seal_groups
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.disk import replay
from repro.disk.backup import DiskBackup
from repro.disk.format import (
    decode_chunk_columns,
    encode_chunk_rows,
    read_chunk_payloads,
    write_chunk,
    write_file_header,
)
from repro.disk.recovery import recover_leafmap, surviving_chunks
from repro.disk.replay import _replay_partition, replay_leafmap
from repro.errors import CorruptionError, RecoveryError, SchemaError
from repro.types import ColumnType
from repro.util.budget import FootprintBudget
from repro.util.checksum import rows_digest
from repro.util.clock import ManualClock
from tests.oracles import SealOracle


def build_backup(tmp_path, clock, *, syncs=5, rows_per_sync=700, rows_per_block=64):
    """A legacy chunk file with unaligned chunk/seal boundaries.

    700 % 64 != 0, so every sync chunk straddles seal groups and every
    partition boundary lands mid-chunk — the shapes the partitioner's
    skip/take logic must get right.
    """
    backup = DiskBackup(tmp_path / "backup", snapshots=False)
    leafmap = LeafMap(clock=clock, rows_per_block=rows_per_block)
    table = leafmap.get_or_create("events")
    t = 1000
    for _ in range(syncs):
        table.add_rows(
            {"time": t + i, "host": f"web{i % 9:02d}", "latency_ms": float(i % 97)}
            for i in range(rows_per_sync)
        )
        t += rows_per_sync
        backup.sync_leafmap(leafmap)
    return backup, leafmap


def serial_recovery(backup, clock, rows_per_block=64):
    restored = LeafMap(clock=clock, rows_per_block=rows_per_block)
    recover_leafmap(backup, restored)
    return restored


def assert_equivalent(a: LeafMap, b: LeafMap) -> None:
    """Row-identical, block-identical, watermark-identical."""
    assert rows_digest(a.snapshot_rows()) == rows_digest(b.snapshot_rows())
    for ta, tb in zip(a, b):
        assert ta.name == tb.name
        assert [blk.row_count for blk in ta.blocks] == [
            blk.row_count for blk in tb.blocks
        ]
        assert ta.total_rows_ingested == tb.total_rows_ingested
        assert ta.total_rows_expired == tb.total_rows_expired


class TestDigestIdentity:
    @pytest.mark.parametrize("workers", [1, 4])
    def test_partitioned_matches_serial(self, tmp_path, clock, workers):
        backup, _ = build_backup(tmp_path, clock)
        serial = serial_recovery(backup, clock)
        parallel = LeafMap(clock=clock, rows_per_block=64)
        count = replay_leafmap(backup, parallel, workers=workers)
        assert count == 5 * 700
        assert_equivalent(serial, parallel)

    def test_cutoff_table_takes_exact_path_and_matches(self, tmp_path, clock):
        """A manifest from before the expired-row count carries a cutoff,
        which thins the stream mid-chunk: header row counts overstate
        survivors, so the table must replay exactly."""
        backup, _ = build_backup(tmp_path, clock)
        entry = backup._entry("events")
        del entry["rows_expired"]
        entry["expire_before"] = 2400
        serial = serial_recovery(backup, clock)
        assert serial.get_table("events").row_count == 5 * 700 - 1400
        parallel = LeafMap(clock=clock, rows_per_block=64)
        replay_leafmap(backup, parallel, workers=3)
        assert_equivalent(serial, parallel)

    @pytest.mark.parametrize("cutoff", [1700, 2400, 4400])
    def test_count_trimmed_table_is_partitioned_over_its_tail(
        self, tmp_path, clock, monkeypatch, cutoff
    ):
        """Expiry the live table ran is a count in the manifest: it cuts
        the chunk stream at its head, mid-chunk, so the surviving tail
        still partitions at seal boundaries and never needs the
        serial-decode path."""
        backup, leafmap = build_backup(tmp_path, clock)
        table = leafmap.get_table("events")
        table.expire(cutoff)
        backup.record_expiry("events", table.total_rows_expired)
        assert 0 < table.total_rows_expired < 5 * 700
        serial = serial_recovery(backup, clock)
        assert serial.get_table("events").row_count == 5 * 700 - table.total_rows_expired
        assert serial.snapshot_rows() == leafmap.snapshot_rows()

        def exact_path(*args, **kwargs):
            raise AssertionError("a count-trimmed table took the exact path")

        monkeypatch.setattr(replay, "_replay_table_exact", exact_path)
        parallel = LeafMap(clock=clock, rows_per_block=64)
        replay_leafmap(backup, parallel, workers=3)
        assert_equivalent(serial, parallel)
        # What the workers were handed: 5 / 4 / 1 of the five chunks.
        chunks, skip = surviving_chunks(backup, "events")
        assert (len(chunks), skip) == {1700: (5, 640), 2400: (4, 644), 4400: (1, 592)}[cutoff]

    def test_multi_table_replay(self, tmp_path, clock):
        backup = DiskBackup(tmp_path / "backup", snapshots=False)
        leafmap = LeafMap(clock=clock, rows_per_block=50)
        for name, n in (("events", 730), ("metrics", 115), ("empty", 0)):
            table = leafmap.get_or_create(name)
            table.add_rows({"time": 1000 + i, "host": "a"} for i in range(n))
        backup.sync_leafmap(leafmap)
        serial = serial_recovery(backup, clock, rows_per_block=50)
        parallel = LeafMap(clock=clock, rows_per_block=50)
        count = replay_leafmap(backup, parallel, workers=4)
        assert count == 730 + 115
        assert_equivalent(serial, parallel)

    def test_torn_tail_chunk_is_skipped_like_serial(self, tmp_path, clock):
        backup, _ = build_backup(tmp_path, clock, syncs=3)
        path = backup.table_file("events")
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) - 100])  # tear the final chunk
        serial = serial_recovery(backup, clock)
        assert serial.get_table("events").row_count == 2 * 700
        parallel = LeafMap(clock=clock, rows_per_block=64)
        replay_leafmap(backup, parallel, workers=4)
        assert_equivalent(serial, parallel)


#: The two types each column may take: two shapes that disagree put a
#: type conflict in any block that holds rows of both.
COLUMN_TYPES = {
    "host": (ColumnType.STRING, ColumnType.STRING_VECTOR),
    "v": (ColumnType.FLOAT64, ColumnType.INT64),
    "tags": (ColumnType.STRING_VECTOR, ColumnType.STRING),
}
VALUES = {
    ColumnType.INT64: st.integers(min_value=-(2**63), max_value=2**63 - 1),
    ColumnType.FLOAT64: st.floats(allow_nan=False),
    ColumnType.STRING: st.sampled_from(["", "a", "web-01", "naïve ☃", "x" * 40]),
    ColumnType.STRING_VECTOR: st.lists(st.sampled_from(["", "é", "prod"]), max_size=3),
}


@st.composite
def row_shapes(draw):
    """``time``'s type (``None``: the rows lack it) and the other columns'."""
    time_type = draw(st.sampled_from([ColumnType.INT64] * 8 + [None, ColumnType.FLOAT64]))
    columns = []
    for name in draw(st.lists(st.sampled_from(sorted(COLUMN_TYPES)), unique=True, max_size=3)):
        columns.append((name, draw(st.sampled_from(COLUMN_TYPES[name]))))
    if draw(st.sampled_from([False] * 9 + [True])):
        columns.append(("", ColumnType.STRING))
    return time_type, columns


@st.composite
def logged_rows(draw):
    """Runs of rows that share a shape, the shape changing between runs
    (and so inside a block), a row now and then lacking one of its
    shape's columns or carrying ``time`` last; times mostly ascending, a
    few going back."""
    shapes = draw(st.lists(row_shapes(), min_size=1, max_size=3))
    rows = []
    for index, count in draw(
        st.lists(
            st.tuples(st.integers(0, len(shapes) - 1), st.integers(1, 12)),
            min_size=1,
            max_size=6,
        )
    ):
        time_type, columns = shapes[index]
        for _ in range(count):
            row = {}
            if time_type is not None:
                step = draw(st.integers(-3, 9))
                row["time"] = 100 + len(rows) * 4 + step
                if time_type is ColumnType.FLOAT64:
                    row["time"] = float(row["time"])
            for name, ctype in columns:
                if draw(st.integers(0, 5)):
                    row[name] = draw(VALUES[ctype])
            if "time" in row and not draw(st.integers(0, 5)):
                row["time"] = row.pop("time")
            rows.append(row)
    return rows


TYPE_CHANGE = [{"time": 100, "v": 1.5}, {"time": 101, "v": 2.5}, {"time": 102, "v": 3}]
HOSTS = [{"time": 100 + i, "host": "a", "tags": ["ab"]} for i in range(9)]
OPTIONAL = [{"time": 100 + i, **({"host": "abc"} if i % 2 else {})} for i in range(6)]
MISALIGNED = [
    {"time": 100 + i, "v": 1.5 if i < 6 else 2, **({"host": "x" * 300} if i == 1 else {})}
    for i in range(12)
]


def sealed_by_oracle(rows, rows_per_block, max_block_bytes, cutoff):
    """The oracle: the rows the cutoff keeps, sealed one at a time
    through ``RowBlock.from_rows``; ``SchemaError`` if one is refused."""
    oracle = SealOracle(rows_per_block, max_block_bytes, created_at=0.0)
    for row in rows:
        if (not cutoff or row.get("time", 0) >= cutoff) and oracle.add(row):
            return SchemaError
    oracle.seal()
    return [(block.pack(), block.created_at) for block in oracle.blocks]


def sealed_by_replay(root, rows, chunk_sizes, rows_per_block, max_block_bytes, cutoff, workers):
    """The rows written to a row log in chunks, then replayed: serially
    (``workers=0``) or through the pool."""
    backup = DiskBackup(root, snapshots=False)
    with open(backup.table_file("events"), "wb") as fh:
        write_file_header(fh)
        start = 0
        for size in chunk_sizes:
            if start < len(rows):
                write_chunk(fh, rows[start : start + size])
                start += size
        write_chunk(fh, rows[start:])
    backup._entry("events").update(synced_rows=len(rows), expire_before=cutoff)
    leafmap = SmallBlockLeafMap(clock=ManualClock(0.0), rows_per_block=rows_per_block)
    leafmap.max_block_bytes = max_block_bytes
    try:
        if workers:
            replay_leafmap(backup, leafmap, workers=workers, clock=ManualClock(0.0))
        else:
            recover_leafmap(backup, leafmap)
    except SchemaError:
        return SchemaError
    return [(block.pack(), block.created_at) for block in leafmap.get_table("events").blocks]


def runs_of(rows):
    """``rows`` as the column runs replay reads back from one chunk."""
    return decode_chunk_columns(encode_chunk_rows(rows)[1], len(rows))


class TestSealGroups:
    def test_groups_mirror_table_seal_boundaries(self, clock):
        rows = [{"time": 1000 + i, "host": f"h{i}"} for i in range(137)]
        groups = list(seal_groups(runs_of(rows), 50, 1 << 30))
        assert [n_rows for _, _, n_rows, _ in groups] == [50, 50, 37]

    def test_byte_cap_seals_early(self):
        rows = [{"time": 1000 + i, "host": "x" * 200} for i in range(40)]
        groups = list(seal_groups(runs_of(rows), 50, 1000))
        assert len(groups) > 1
        assert all(n_rows < 50 for _, _, n_rows, _ in groups)

    def test_invalid_row_raises_like_live_ingest(self):
        with pytest.raises(SchemaError, match="time"):
            list(seal_groups(runs_of([{"host": "a"}]), 50, 1 << 30))

    @settings(
        max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        rows=logged_rows(),
        chunk_sizes=st.lists(st.integers(1, 10), max_size=6),
        rows_per_block=st.integers(1, 8),
        max_block_bytes=st.one_of(st.integers(20, 300), st.just(1 << 30)),
        cutoff=st.sampled_from([0, 0, 130]),
    )
    # ``v`` turns from FLOAT64 to INT64 at a block boundary, then inside a block.
    @example(rows=TYPE_CHANGE, chunk_sizes=[3], rows_per_block=2, max_block_bytes=1 << 30, cutoff=0)
    @example(rows=TYPE_CHANGE, chunk_sizes=[3], rows_per_block=3, max_block_bytes=1 << 30, cutoff=0)
    # 51 estimated bytes a row: the cap is met exactly by the fourth.
    @example(rows=HOSTS, chunk_sizes=[5], rows_per_block=8, max_block_bytes=204, cutoff=0)
    # 20 and 35 estimated bytes a row in turn: the cap binds at the third.
    @example(rows=OPTIONAL, chunk_sizes=[6], rows_per_block=8, max_block_bytes=60, cutoff=0)
    # The cap binds in the first partition; the second, cut at the wrong
    # boundary, holds a type change that the true blocks do not.
    @example(rows=MISALIGNED, chunk_sizes=[12], rows_per_block=4, max_block_bytes=300, cutoff=0)
    def test_replay_seals_what_add_rows_seals(
        self, rows, chunk_sizes, rows_per_block, max_block_bytes, cutoff
    ):
        """Every replay route cuts the log where the oracle seals rows
        one at a time through ``RowBlock.from_rows`` — row count, byte
        cap, a block's union schema with defaults — and refuses what it
        refuses: a row without ``time`` or with a float one, an empty
        column name, a type that changes inside a block (across blocks
        it may).  The cutoff drops rows first."""
        want = sealed_by_oracle(rows, rows_per_block, max_block_bytes, cutoff)
        args = (rows, chunk_sizes, rows_per_block, max_block_bytes, cutoff)
        with tempfile.TemporaryDirectory() as root:
            for workers in (0, 1, 2):
                got = sealed_by_replay(Path(root) / str(workers), *args, workers)
                assert got == want, f"workers={workers}"


class TestPartitionWorker:
    def payloads(self, backup):
        with open(backup.table_file("events"), "rb") as fh:
            return list(read_chunk_payloads(fh))

    def test_skip_take_selects_exact_rows(self, tmp_path, clock):
        backup, _ = build_backup(tmp_path, clock, syncs=2, rows_per_sync=100)
        chunks = self.payloads(backup)
        packed = _replay_partition(chunks, 30, 120, 64, 1 << 30, 1.0)
        blocks = [RowBlock.unpack(p) for p in packed]
        assert [b.row_count for b in blocks] == [64, 56]
        times = [r["time"] for b in blocks for r in b.to_rows()]
        assert times == list(range(1030, 1150))

    def test_byte_cap_binding_returns_none(self, tmp_path, clock):
        backup, _ = build_backup(tmp_path, clock, syncs=1, rows_per_sync=100)
        chunks = self.payloads(backup)
        assert _replay_partition(chunks, 0, 100, 64, 64, 1.0) is None

    def test_packed_round_trip(self, tmp_path, clock):
        """Blocks cross back from a worker packed: unpacked, they are the
        blocks sealing the same rows in-process gives."""
        backup, leafmap = build_backup(tmp_path, clock, syncs=1, rows_per_sync=100)
        chunks = self.payloads(backup)
        packed = _replay_partition(chunks, 0, 100, 64, 1 << 30, 1.0)
        rows = leafmap.get_table("events").to_rows()
        sealed = [RowBlock.from_rows(rows[i : i + 64], created_at=1.0) for i in (0, 64)]
        assert [RowBlock.unpack(p).to_rows() for p in packed] == [
            b.to_rows() for b in sealed
        ]


class SmallBlockLeafMap(LeafMap):
    """Leaf map whose tables seal at a tiny pre-compression byte cap.

    ``LeafMap`` has no byte-cap knob (production tables use the 1 GB
    default), so pin it on every created table — including the ones the
    recovery paths create internally."""

    max_block_bytes = 4096

    def create_table(self, name):
        table = super().create_table(name)
        table._open.max_block_bytes = self.max_block_bytes
        return table


class TestByteCapFallback:
    def test_wide_rows_fall_back_to_exact_and_match(self, tmp_path, clock):
        """Rows fat enough that the byte cap seals before the row count:
        the partitioned premise is wrong, the exact path must win out."""
        backup = DiskBackup(tmp_path / "backup", snapshots=False)
        source = SmallBlockLeafMap(clock=clock, rows_per_block=500)
        table = source.get_or_create("events")
        table.add_rows(
            {"time": 1000 + i, "host": "x" * 300} for i in range(200)
        )
        backup.sync_leafmap(source)
        assert table.block_count > 1, "byte cap must actually bind"

        serial = SmallBlockLeafMap(clock=clock, rows_per_block=500)
        recover_leafmap(backup, serial)
        parallel = SmallBlockLeafMap(clock=clock, rows_per_block=500)
        replay_leafmap(backup, parallel, workers=3)
        assert_equivalent(serial, parallel)


class TestBudgetBalance:
    def test_budget_returns_to_zero_on_success(self, tmp_path, clock):
        backup, _ = build_backup(tmp_path, clock)
        budget = FootprintBudget(1 << 20)
        restored = LeafMap(clock=clock, rows_per_block=64)
        replay_leafmap(backup, restored, workers=4, budget=budget)
        assert budget.in_flight == 0
        assert budget.peak_in_flight > 0

    def test_small_budget_serializes_but_completes(self, tmp_path, clock):
        """A budget smaller than one partition admits requests one at a
        time (oversized requests run alone) — slow, never stuck."""
        backup, _ = build_backup(tmp_path, clock, syncs=2)
        serial = serial_recovery(backup, clock)
        budget = FootprintBudget(64)
        restored = LeafMap(clock=clock, rows_per_block=64)
        replay_leafmap(backup, restored, workers=4, budget=budget)
        assert budget.in_flight == 0
        assert_equivalent(serial, restored)

    def test_budget_balanced_after_mid_file_corruption(self, tmp_path, clock):
        """A mid-file corruption raises out of replay with every
        outstanding partition's bytes returned to the budget."""
        backup, _ = build_backup(tmp_path, clock, syncs=3)
        path = backup.table_file("events")
        raw = bytearray(path.read_bytes())
        # Flip a payload byte in the *first* chunk: CRC mismatch with
        # more data following it is a hard corruption.
        raw[30] ^= 0xFF
        path.write_bytes(bytes(raw))
        budget = FootprintBudget(1 << 20)
        restored = LeafMap(clock=clock, rows_per_block=64)
        with pytest.raises(CorruptionError):
            replay_leafmap(backup, restored, workers=4, budget=budget)
        assert budget.in_flight == 0

    def test_budget_balanced_after_worker_failure(self, tmp_path, clock):
        """A decode failure *inside a worker* (bad rows, intact CRC) must
        abandon cleanly: error propagated, budget back to zero."""
        backup, _ = build_backup(tmp_path, clock, syncs=1, rows_per_sync=100)
        # Rewrite the chunk with rows lacking the time column; CRCs are
        # regenerated, so the parent's scan succeeds and only the
        # worker's row validation trips.
        path = backup.table_file("events")
        with open(path, "wb") as fh:
            write_file_header(fh)
            write_chunk(fh, [{"host": "a"} for _ in range(100)])
        budget = FootprintBudget(1 << 20)
        restored = LeafMap(clock=clock, rows_per_block=64)
        with pytest.raises(Exception, match="time"):
            replay_leafmap(backup, restored, workers=4, budget=budget)
        assert budget.in_flight == 0


class TestArguments:
    def test_rejects_bad_workers_and_backend(self, tmp_path, clock):
        backup, _ = build_backup(tmp_path, clock, syncs=1)
        restored = LeafMap(clock=clock, rows_per_block=64)
        with pytest.raises(ValueError, match="worker"):
            replay_leafmap(backup, restored, workers=0)
        # The pool is processes; no argument switches a thread pool back on.
        with pytest.raises(TypeError, match="backend"):
            replay_leafmap(backup, restored, backend="thread")

    def test_requires_empty_leafmap(self, tmp_path, clock):
        backup, _ = build_backup(tmp_path, clock, syncs=1)
        occupied = LeafMap(clock=clock, rows_per_block=64)
        occupied.get_or_create("events")
        with pytest.raises(RecoveryError, match="empty"):
            replay_leafmap(backup, occupied)

    def test_engine_rejects_bad_replay_config(self, shm_namespace):
        with pytest.raises(ValueError, match="replay_workers"):
            RestartEngine("0", namespace=shm_namespace, replay_workers=0)


class TestEngineIntegration:
    def test_legacy_rung_fans_out_and_matches_serial(self, shm_namespace, tmp_path, clock):
        backup, leafmap = build_backup(tmp_path, clock)
        snapshot = leafmap.snapshot_rows()
        restored = LeafMap(clock=clock, rows_per_block=64)
        report = RestartEngine(
            "0",
            namespace=shm_namespace,
            backup=backup,
            clock=clock,
            replay_workers=3,
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert report.rows == 5 * 700
        assert restored.snapshot_rows() == snapshot

    def test_single_worker_engine_uses_serial_path(
        self, shm_namespace, tmp_path, clock
    ):
        backup, leafmap = build_backup(tmp_path, clock, syncs=2)
        restored = LeafMap(clock=clock, rows_per_block=64)
        report = RestartEngine(
            "0", namespace=shm_namespace, backup=backup, clock=clock
        ).restore(restored)
        assert report.method is RecoveryMethod.DISK
        assert restored.snapshot_rows() == leafmap.snapshot_rows()
