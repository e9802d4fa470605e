"""Tests for the shm-layout-on-disk format (paper §6 / experiment E12)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import RowBlock
from repro.disk.shmformat import (
    _FILE_HEADER,
    read_table_snapshot,
    snapshot_filename,
    write_table_shm_format,
)
from repro.errors import ChecksumMismatchError, CorruptionError
from repro.shm.layout import table_segment_size, write_table_to_segment
from repro.shm.segment import ShmSegment
from repro.util.clock import ManualClock


def make_map():
    leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
    table = leafmap.get_or_create("events")
    table.add_rows({"time": i, "host": f"h{i % 2}"} for i in range(25))
    leafmap.seal_all()
    return leafmap


class TestShmDiskFormat:
    def test_table_roundtrip(self, tmp_path):
        leafmap = make_map()
        blocks = leafmap.get_table("events").blocks
        path = write_table_shm_format(tmp_path, "events", blocks)
        snap = read_table_snapshot(path)
        assert snap.table_name == "events"
        assert [b.to_rows() for b in snap.blocks] == [b.to_rows() for b in blocks]

    def test_leafmap_roundtrip(self, tmp_path):
        """One file per table, each read back into its own table."""
        leafmap = make_map()
        leafmap.get_or_create("other").add_rows([{"time": 9}])
        leafmap.seal_all()
        paths = [
            write_table_shm_format(tmp_path, table.name, table.blocks)
            for table in leafmap
        ]
        recovered = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        for path in paths:
            snap = read_table_snapshot(path)
            recovered.get_or_create(snap.table_name).replace_blocks(snap.blocks)
        assert recovered.row_count == 26
        assert recovered.snapshot_rows() == leafmap.snapshot_rows()

    def test_checksum_detects_corruption(self, tmp_path):
        leafmap = make_map()
        path = write_table_shm_format(
            tmp_path, "events", leafmap.get_table("events").blocks
        )
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0x01  # anywhere in the body; the envelope CRC covers it all
        path.write_bytes(bytes(raw))
        with pytest.raises(ChecksumMismatchError):
            read_table_snapshot(path)

    def test_truncation_detected(self, tmp_path):
        leafmap = make_map()
        path = write_table_shm_format(
            tmp_path, "events", leafmap.get_table("events").blocks
        )
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CorruptionError):
            read_table_snapshot(path)

    def test_bad_magic_detected(self, tmp_path):
        leafmap = make_map()
        path = write_table_shm_format(
            tmp_path, "events", leafmap.get_table("events").blocks
        )
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CorruptionError):
            read_table_snapshot(path)

    def test_empty_table(self, tmp_path):
        path = write_table_shm_format(tmp_path, "bare", [])
        snap = read_table_snapshot(path)
        assert snap.table_name == "bare" and snap.blocks == []

    @pytest.mark.parametrize("case", ["empty", "one_block", "mixed_schemas"])
    def test_body_is_the_segment_image(self, tmp_path, shm_namespace, case):
        """§6's claim: the snapshot body is, byte for byte, what a table
        segment holds for the same blocks."""
        blocks = {
            "empty": [],
            "one_block": make_map().get_table("events").blocks[:1],
            "mixed_schemas": [
                *make_map().get_table("events").blocks,
                RowBlock.from_rows(
                    [{"time": 30 + i, "count": i, "tags": ["a"]} for i in range(5)],
                    created_at=3.0,
                ),
            ],
        }[case]
        size = table_segment_size("events", blocks)
        segment = ShmSegment.create(f"{shm_namespace}-img", size)
        try:
            used = write_table_to_segment(segment, "events", blocks)
            image = bytes(segment.buf[:used])
        finally:
            segment.unlink()
        raw = write_table_shm_format(tmp_path, "events", blocks).read_bytes()
        assert raw[_FILE_HEADER.size :] == image


class TestSnapshotEnvelope:
    """Generation and watermark fields of the v2 envelope."""

    def test_generation_and_watermarks_roundtrip(self, tmp_path):
        leafmap = make_map()
        blocks = leafmap.get_table("events").blocks
        path = write_table_shm_format(
            tmp_path,
            "events",
            blocks,
            generation=7,
            rows_ingested=400,
            rows_expired=375,
        )
        snap = read_table_snapshot(path)
        assert snap.table_name == "events"
        assert snap.generation == 7
        assert snap.rows_ingested == 400
        assert snap.rows_expired == 375
        assert snap.row_count == 25

    def test_default_ingest_watermark_counts_block_rows(self, tmp_path):
        leafmap = make_map()
        blocks = leafmap.get_table("events").blocks
        path = write_table_shm_format(tmp_path, "events", blocks, rows_expired=5)
        snap = read_table_snapshot(path)
        assert snap.rows_ingested == 5 + snap.row_count

    def test_empty_table_keeps_watermarks(self, tmp_path):
        """A fully-expired table snapshots to zero blocks but must not
        lose its monotone counters."""
        path = write_table_shm_format(
            tmp_path, "drained", [], generation=3, rows_ingested=90, rows_expired=90
        )
        snap = read_table_snapshot(path)
        assert snap.blocks == []
        assert (snap.generation, snap.rows_ingested, snap.rows_expired) == (3, 90, 90)

    def test_no_tmp_file_left_behind(self, tmp_path):
        leafmap = make_map()
        write_table_shm_format(tmp_path, "events", leafmap.get_table("events").blocks)
        assert not list(tmp_path.glob("*.tmp"))


ODD_NAMES = [
    "dotted.table.name",
    "trailing.",
    "per%cent",
    "spa ce",
    "slash/inside",
    "back\\slash",
    "unicode-π漢字",
    "colon:semi;",
    "..",
]


class TestOddTableNames:
    """The escape scheme must keep any table name filesystem-safe and
    reversible — the name inside the file is authoritative."""

    @pytest.mark.parametrize("name", ODD_NAMES)
    def test_roundtrip_preserves_exact_name(self, tmp_path, name):
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=10)
        leafmap.get_or_create(name).add_rows({"time": i} for i in range(12))
        leafmap.seal_all()
        path = write_table_shm_format(
            tmp_path, name, leafmap.get_table(name).blocks, generation=2
        )
        assert path.parent == tmp_path  # no surprise subdirectories
        snap = read_table_snapshot(path)
        assert snap.table_name == name
        assert snap.row_count == 12

    def test_escaping_is_injective(self):
        """Names that could collide post-escape must not: '%' itself is
        escaped, so the literal and escaped spellings stay distinct."""
        assert snapshot_filename("a b") != snapshot_filename("a%20b")
        assert snapshot_filename("x/y") != snapshot_filename("x%2fy")

    @settings(max_examples=50, deadline=None)
    @given(
        name=st.text(
            alphabet="abz09-_. %/\\:πµ漢", min_size=1, max_size=24
        ),
        generation=st.integers(min_value=0, max_value=2**60),
    )
    def test_any_name_roundtrips(self, tmp_path_factory, name, generation):
        directory = tmp_path_factory.mktemp("oddnames")
        leafmap = LeafMap(clock=ManualClock(0.0), rows_per_block=8)
        leafmap.get_or_create(name).add_rows({"time": i} for i in range(9))
        leafmap.seal_all()
        path = write_table_shm_format(
            directory, name, leafmap.get_table(name).blocks, generation=generation
        )
        snap = read_table_snapshot(path)
        assert snap.table_name == name
        assert snap.generation == generation
        assert [b.to_rows() for b in snap.blocks] == [
            b.to_rows() for b in leafmap.get_table(name).blocks
        ]
