"""Tests for the contiguous table segment layout (paper, Figure 4)."""

import pytest

from repro.columnstore.leafmap import LeafMap
from repro.columnstore.rowblock import PACK_HEADER, ROWBLOCK_VERSION, RowBlock
from repro.columnstore.schema import Schema
from repro.core.engine import RecoveryMethod, RestartEngine
from repro.errors import CorruptionError, LayoutVersionError, ShmError
from repro.shm.layout import (
    TableSegmentWriter,
    iter_blocks_from_segment,
    read_block_headers,
    read_segment_header,
    table_segment_size,
    write_table_to_segment,
)
from repro.shm.metadata import LeafMetadata
from repro.shm.segment import ShmSegment


def read_back(segment, used):
    """``(table name, heap blocks)`` of a written table segment."""
    view = segment.read_at(0, used)
    try:
        return read_segment_header(view)[0], [b for _, b in iter_blocks_from_segment(view)]
    finally:
        view.release()


def make_blocks(n_blocks=3, rows=20):
    blocks = []
    for b in range(n_blocks):
        rows_data = [
            {"time": b * 1000 + i, "host": f"h{i % 3}", "v": float(i)}
            for i in range(rows)
        ]
        blocks.append(RowBlock.from_rows(rows_data, created_at=float(b)))
    return blocks


class TestSizes:
    def test_packed_block_size_is_exact(self):
        block = make_blocks(1)[0]
        chunks = block.packed_chunks()
        assert b"".join(chunks) == block.pack()
        assert len(block.packed_preamble()) + block.nbytes == len(block.pack())

    def test_table_segment_size_is_exact(self, shm_namespace):
        blocks = make_blocks()
        size = table_segment_size("events", blocks)
        segment = ShmSegment.create(f"{shm_namespace}-s", size)
        try:
            used = write_table_to_segment(segment, "events", blocks)
            assert used == size
        finally:
            segment.unlink()


class TestWriteRead:
    def test_roundtrip(self, shm_namespace):
        blocks = make_blocks()
        size = table_segment_size("events", blocks)
        segment = ShmSegment.create(f"{shm_namespace}-a", size + 100)  # slack ok
        try:
            used = write_table_to_segment(segment, "events", blocks)
            name, recovered = read_back(segment, used)
            assert name == "events"
            assert [b.to_rows() for b in recovered] == [b.to_rows() for b in blocks]
        finally:
            segment.unlink()

    def test_empty_table(self, shm_namespace):
        size = table_segment_size("empty", [])
        segment = ShmSegment.create(f"{shm_namespace}-b", max(size, 1))
        try:
            used = write_table_to_segment(segment, "empty", [])
            name, recovered = read_back(segment, used)
            assert name == "empty" and recovered == []
        finally:
            segment.unlink()

    def test_streamed_copy_yields_one_event_per_block(self, shm_namespace):
        """A step is a whole row block: its RBC bytes, and what landed
        with it (the preambles), summing to the segment's used bytes."""
        blocks = make_blocks(2, rows=10)
        segment = ShmSegment.create(
            f"{shm_namespace}-c", table_segment_size("t", blocks)
        )
        try:
            writer = TableSegmentWriter(segment, "t", blocks)
            events = list(writer.copy_events())
            assert [e.block_index for e in events] == [0, 1]
            assert [e.nbytes for e in events] == [b.nbytes for b in blocks]
            assert sum(e.landed for e in events) == writer.used_bytes
            for event, block in zip(events, blocks):
                assert event.landed > event.nbytes  # its preamble came with it
            name, recovered = read_back(segment, writer.used_bytes)
            assert [b.pack() for b in recovered] == [b.pack() for b in blocks]
        finally:
            segment.unlink()

    def test_too_small_segment_fails_before_any_copy(self, shm_namespace):
        blocks = make_blocks(1)
        segment = ShmSegment.create(f"{shm_namespace}-d", 32)
        try:
            writer = TableSegmentWriter(segment, "t", blocks)
            with pytest.raises(ShmError):
                next(writer.copy_events())
            # Nothing was copied; the blocks remain intact in heap.
            blocks[0].verify()
        finally:
            segment.unlink()


class TestHeaderValidation:
    def _segment_with_table(self, shm_namespace, suffix="v"):
        blocks = make_blocks(1)
        size = table_segment_size("t", blocks)
        segment = ShmSegment.create(f"{shm_namespace}-{suffix}", size)
        write_table_to_segment(segment, "t", blocks)
        return segment

    def test_bad_magic(self, shm_namespace):
        segment = self._segment_with_table(shm_namespace)
        try:
            corrupted = bytearray(bytes(segment.buf))
            corrupted[0] ^= 0xFF
            with pytest.raises(CorruptionError):
                read_segment_header(memoryview(corrupted))
        finally:
            segment.unlink()

    def test_version_mismatch(self, shm_namespace):
        segment = self._segment_with_table(shm_namespace, "w")
        try:
            corrupted = bytearray(bytes(segment.buf))
            corrupted[4] = 200
            with pytest.raises(LayoutVersionError):
                read_segment_header(memoryview(corrupted))
        finally:
            segment.unlink()

    def test_used_bytes_bound(self, shm_namespace):
        segment = self._segment_with_table(shm_namespace, "x")
        try:
            corrupted = bytearray(bytes(segment.buf))
            corrupted[8:16] = (2**40).to_bytes(8, "little")
            with pytest.raises(CorruptionError):
                read_segment_header(memoryview(corrupted))
        finally:
            segment.unlink()

    def test_block_extent_bound(self, shm_namespace):
        segment = self._segment_with_table(shm_namespace, "y")
        try:
            view = memoryview(bytes(segment.buf))
            name, pairs = read_segment_header(view)
            assert name == "t" and len(pairs) == 1
            # Corrupt the first block offset to point past the end.
            corrupted = bytearray(view)
            header_len = len(bytes(view)) - pairs[0][1]
            offset_pos = header_len - 16  # offset entry precedes size entry
            corrupted[offset_pos : offset_pos + 8] = (2**30).to_bytes(8, "little")
            with pytest.raises(CorruptionError):
                read_segment_header(memoryview(corrupted))
        finally:
            segment.unlink()


    @pytest.mark.parametrize(
        "damage, error",
        [
            ("too_short", CorruptionError),
            ("bad_magic", CorruptionError),
            ("other_version", LayoutVersionError),
            ("size_mismatch", CorruptionError),
        ],
    )
    def test_damaged_block_header_is_refused_by_both_readers(
        self, shm_namespace, damage, error
    ):
        """The directory scan and the unpack read a packed header through
        one check, so each damage is refused by both, the same way."""
        segment = self._segment_with_table(shm_namespace, "h")
        try:
            image = bytearray(bytes(segment.buf))
        finally:
            segment.unlink()
        _, [(offset, size)] = read_segment_header(memoryview(bytes(image)))
        if damage == "too_short":
            size = PACK_HEADER.size - 1
            image[offset - 8 : offset] = size.to_bytes(8, "little")  # the size table
        elif damage == "bad_magic":
            image[offset] ^= 0xFF
        elif damage == "other_version":
            image[offset + 4 : offset + 6] = (ROWBLOCK_VERSION + 1).to_bytes(2, "little")
        else:
            image[offset + 8 : offset + 16] = (size + 8).to_bytes(8, "little")
        with pytest.raises(error) as scanned:
            read_block_headers(memoryview(bytes(image)))
        with pytest.raises(error) as unpacked:
            RowBlock.unpack(bytes(image[offset : offset + size]))
        assert type(scanned.value) is type(unpacked.value) is error


class TestSchemaParsedOnce:
    """A table's blocks repeat their neighbour's schema, so it is parsed
    once and byte-compared after.  The shortcut must never stand in for
    bytes that differ: corruption behind an intact block surfaces
    exactly as it does cold."""

    @staticmethod
    def schema_span(block):
        return range(PACK_HEADER.size, PACK_HEADER.size + len(block.schema.wire))

    def test_flipped_schema_byte_in_a_later_block_is_never_masked(
        self, shm_namespace
    ):
        blocks = make_blocks()
        size = table_segment_size("t", blocks)
        segment = ShmSegment.create(f"{shm_namespace}-s1", size)
        try:
            write_table_to_segment(segment, "t", blocks)
            image = bytes(segment.buf[:size])
        finally:
            segment.unlink()
        intact = [("time", "host", "v")] * 3
        _, extents = read_block_headers(memoryview(image))
        assert [e.columns for e in extents] == intact
        second = extents[1]
        good_payload = blocks[0].pack()

        def outcome(parse):
            try:
                return parse()
            except CorruptionError as exc:
                return str(exc)

        rejected = 0
        for at in self.schema_span(blocks[1]):
            torn = bytearray(image)
            torn[second.offset + at] ^= 0xFF
            torn = bytes(torn)
            payload = torn[second.offset : second.offset + second.size]

            def scan():  # the directory scan: block 0 intact, block 1 torn
                return [e.columns for e in read_block_headers(memoryview(torn))[1]]

            def unpack():  # the wire: a torn payload
                return list(RowBlock.unpack(payload).schema.items())

            for parse in (scan, unpack):
                Schema._last_parsed = None
                cold = outcome(parse)
                RowBlock.unpack(good_payload)  # ...following a good one
                assert outcome(parse) == cold, (parse.__name__, at)
                rejected += isinstance(cold, str)
            assert outcome(scan) != intact, at
        assert rejected  # type codes, lengths and UTF-8 were all hit

    def test_interleaved_schemas_each_come_back_with_their_own(self):
        left = make_blocks(3)
        right = [
            RowBlock.from_rows(
                [{"time": b * 10 + i, "count": i, "tags": ["a"]} for i in range(5)],
                created_at=float(b),
            )
            for b in range(3)
        ]
        for a, b in zip(left, right):
            for original in (a, b):
                restored = RowBlock.unpack(original.pack())
                assert restored.schema == original.schema
                assert restored.to_rows() == original.to_rows()

    def test_blocking_restore_falls_to_disk_on_a_torn_second_schema(
        self, shm_namespace, backup, clock
    ):
        leafmap = LeafMap(clock=clock, rows_per_block=20)
        leafmap.get_or_create("events").add_rows(
            {"time": i, "host": f"h{i % 3}", "v": float(i)} for i in range(60)
        )
        leafmap.seal_all()
        snapshot = leafmap.snapshot_rows()
        engine = RestartEngine("0", namespace=shm_namespace, backup=backup, clock=clock)
        engine.backup_to_shm(leafmap)
        meta = LeafMetadata.attach(shm_namespace, "0")
        record = meta.records[0]
        meta.close()
        with ShmSegment.attach(record.segment_name) as segment:
            view = segment.read_at(0, record.used_bytes)
            _, extents = read_block_headers(view)
            view.release()
            # Second block's first column: count varint, name length,
            # "time", then the type code.
            segment.write_at(extents[1].offset + PACK_HEADER.size + 6, b"\xee")
        restored = LeafMap(clock=clock, rows_per_block=20)
        report = engine.restore(restored)
        assert report.method is RecoveryMethod.DISK_SNAPSHOT
        assert report.fell_back_to_disk
        assert report.failure_reason.startswith(
            "CorruptionError: unknown column type code 238"
        )
        assert restored.snapshot_rows() == snapshot
        assert not engine.shm_state_exists()
