"""Corruption fuzzing: hostile bytes never escape the error hierarchy.

A restore reads bytes written by another process; if those bytes are
garbage (a partially-written segment, a disk sector gone bad, an
operator's stray write), every reader must fail with a
:class:`~repro.errors.ReproError` subclass — never an uncontrolled
IndexError/struct.error/UnicodeDecodeError — and never loop or crash the
interpreter.  The restart engine additionally must convert any such
failure into a disk fallback, which test_core_engine covers; here we
fuzz the parsers themselves.
"""

import dataclasses
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.columnstore.rbc import RowBlockColumn, build_rbc, build_rbc_from_encoded
from repro.columnstore.rowblock import RowBlock
from repro.columnstore.schema import Schema
from repro.compression.base import CompressionFlags
from repro.compression.pipeline import encode_column
from repro.errors import CorruptionError, ReplicaWireError, ReproError
from repro.shm.layout import read_segment_header
from repro.types import ColumnType
from repro.util.binary import BufferReader, decode_varint

ACCEPTABLE = (ReproError,)


def sample_rbc():
    return build_rbc(ColumnType.STRING, ["alpha", "beta", "alpha"] * 10)


def sample_packed_block():
    rows = [{"time": i, "host": f"h{i % 2}", "v": float(i)} for i in range(30)]
    return RowBlock.from_rows(rows, created_at=1.0).pack()


class TestRbcFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_random_bytes_never_crash(self, data):
        try:
            column = RowBlockColumn(data)
            column.verify()
            column.values(ColumnType.STRING)
        except ACCEPTABLE:
            pass

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_mutated_valid_buffer_never_crashes(self, data):
        buf = bytearray(sample_rbc())
        n_mutations = data.draw(st.integers(min_value=1, max_value=8))
        for _ in range(n_mutations):
            index = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
            buf[index] = data.draw(st.integers(min_value=0, max_value=255))
        try:
            column = RowBlockColumn(bytes(buf))
            column.verify()
            column.values(ColumnType.STRING)
        except ACCEPTABLE:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_truncations_never_crash(self, cut):
        buf = sample_rbc()
        try:
            RowBlockColumn(buf[: min(cut, len(buf))]).verify()
        except ACCEPTABLE:
            pass


class TestPackedBlockFuzz:
    @settings(max_examples=120, deadline=None)
    @given(st.binary(min_size=0, max_size=400))
    def test_random_bytes_never_crash(self, data):
        try:
            RowBlock.unpack(data)
        except ACCEPTABLE:
            pass

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_mutated_block_never_crashes(self, data):
        buf = bytearray(sample_packed_block())
        for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
            index = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
            buf[index] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
        try:
            block = RowBlock.unpack(bytes(buf))
            block.verify()
            block.to_rows()
        except ACCEPTABLE:
            pass


    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_a_good_block_before_never_changes_the_outcome(self, data):
        """Schemas are parsed once and byte-compared after (a wire
        payload following a good one, a segment's second block): for any
        mutation, decoding behind an intact block must raise or return
        exactly what a cold decode does."""
        good = sample_packed_block()
        buf = bytearray(good)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            # Header + serialized schema + offset table: where the parse
            # the comparison stands in for happens.
            index = data.draw(st.integers(min_value=0, max_value=120))
            buf[index] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))

        def outcome():
            try:
                block = RowBlock.unpack(bytes(buf))
            except ACCEPTABLE as exc:
                return type(exc), str(exc)
            return list(block.schema.items()), block.row_count

        Schema._last_parsed = None
        cold = outcome()
        RowBlock.unpack(good)
        assert outcome() == cold


def _int_dictionary_width_at(data):
    n_dict, offset = decode_varint(data)
    return offset + 8 * n_dict  # past the distinct i64 values


def _vector_id_width_at(data):
    reader = BufferReader(data)
    reader.read_u8()  # the lengths' width
    reader.read_varint()  # flattened item count
    reader.read_len_prefixed()  # packed lengths
    return reader.offset


#: Every bit-packed stream a column decode reads a width byte for:
#: (ctype, values, the flag the encoder must pick, where the width byte is).
BIT_PACKED_STREAMS = {
    "int-plain": (
        ColumnType.INT64,
        [(i * 7919) % 1000 for i in range(40)],
        CompressionFlags.ZIGZAG,
        lambda data: 0,
    ),
    "int-delta": (ColumnType.INT64, list(range(1000, 1040)), CompressionFlags.DELTA, lambda data: 8),
    "int-dictionary": (
        ColumnType.INT64,
        [200, 503] * 20,
        CompressionFlags.DICT,
        _int_dictionary_width_at,
    ),
    "string-ids": (ColumnType.STRING, ["a", "b"] * 20, CompressionFlags.DICT, lambda data: 0),
    "vector-lengths": (
        ColumnType.STRING_VECTOR,
        [["x", "y"], ["x"]] * 10,
        CompressionFlags.DICT,
        lambda data: 0,
    ),
    "vector-ids": (
        ColumnType.STRING_VECTOR,
        [["x", "y"], ["x"]] * 10,
        CompressionFlags.DICT,
        _vector_id_width_at,
    ),
}


class TestHostileBitWidth:
    """A CRC-valid column whose stored bit width is out of [1, 64] is
    corruption, not a caller's ``ValueError`` escaping from a query."""

    @pytest.mark.parametrize("width", [0, 65])
    @pytest.mark.parametrize("stream", BIT_PACKED_STREAMS)
    def test_width_byte_raises_corruption(self, stream, width):
        ctype, values, flag, width_at = BIT_PACKED_STREAMS[stream]
        encoded = encode_column(ctype, values)
        assert flag in encoded.flags
        data = bytearray(encoded.data)
        data[width_at(data)] = width
        column = RowBlockColumn(build_rbc_from_encoded(dataclasses.replace(encoded, data=bytes(data))))
        column.verify()
        with pytest.raises(CorruptionError, match="bit width"):
            column.decoded(ctype)
        with pytest.raises(CorruptionError, match="bit width"):
            column.values(ctype)


class TestSegmentHeaderFuzz:
    @settings(max_examples=120, deadline=None)
    @given(st.binary(min_size=0, max_size=300))
    def test_random_bytes_never_crash(self, data):
        try:
            read_segment_header(memoryview(data))
        except ACCEPTABLE:
            pass


class TestDiskChunkFuzz:
    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=0, max_size=400))
    def test_random_file_never_crashes(self, data):
        import io

        from repro.disk.format import read_table_chunks

        try:
            list(read_table_chunks(io.BytesIO(data)))
        except ACCEPTABLE:
            pass

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_mutated_file_never_crashes(self, data):
        import io

        from repro.disk.format import read_table_chunks, write_chunk, write_file_header

        buf = io.BytesIO()
        write_file_header(buf)
        write_chunk(buf, [{"time": 1, "host": "a", "v": 0.5}] * 5)
        raw = bytearray(buf.getvalue())
        index = data.draw(st.integers(min_value=0, max_value=len(raw) - 1))
        raw[index] ^= 0xFF
        try:
            list(read_table_chunks(io.BytesIO(bytes(raw))))
        except ACCEPTABLE:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.binary(min_size=0, max_size=300), st.integers(min_value=0, max_value=1 << 33))
    def test_random_chunk_payload_never_crashes(self, payload, n_rows):
        """The chunk decoder sees bytes whose CRC held: anything a writer
        of another version (or a colliding checksum) could leave there."""
        from repro.disk.format import decode_chunk_rows

        try:
            decode_chunk_rows(payload, n_rows)
        except ACCEPTABLE:
            pass

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_mutated_chunk_payload_never_crashes(self, data):
        from repro.disk.format import decode_chunk_rows, encode_chunk_rows

        rows = [{"time": i, "host": "wéb-01", "v": 0.5, "tags": ["a", ""]} for i in range(4)]
        count, payload = encode_chunk_rows(rows)
        buf = bytearray(payload)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            index = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
            buf[index] = data.draw(st.integers(min_value=0, max_value=255))
        cut = data.draw(st.integers(min_value=0, max_value=len(buf)))
        try:
            decode_chunk_rows(bytes(buf[:cut]), count)
        except ACCEPTABLE:
            pass


class TestMetadataFuzz:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.binary(min_size=0, max_size=64))
    def test_garbage_metadata_never_crashes(self, dirty_shm_namespace, prefix):
        """A metadata segment overwritten with garbage must fail with a
        library error and route the engine to disk (the engine path is
        asserted in test_core_engine; here we check the parser)."""
        from repro.shm.metadata import LeafMetadata
        from repro.shm.segment import ShmSegment

        import uuid as _uuid

        name = f"{dirty_shm_namespace}-leaf-fz{_uuid.uuid4().hex[:6]}-meta"
        segment = ShmSegment.create(name, 4096)
        try:
            segment.write_at(0, prefix)
            meta = LeafMetadata(segment)
            try:
                meta.valid
                meta.records
            except ACCEPTABLE:
                pass
        finally:
            segment.unlink()


def sample_catalog():
    from repro.cluster.replication import _catalog_payload, snapshot_leafmap
    from repro.columnstore.leafmap import LeafMap

    leafmap = LeafMap(rows_per_block=16)
    leafmap.get_or_create("events").add_rows(
        {"time": i, "host": f"h{i % 3}", "v": float(i)} for i in range(40)
    )
    leafmap.get_or_create("metrics").add_rows({"time": i, "count": i} for i in range(20))
    leafmap.seal_all()
    return _catalog_payload("s1", snapshot_leafmap(leafmap))


def parse_catalog_frame(payload):
    """``payload`` as a well-framed CATALOG — valid magic, version and
    CRC — read and parsed the way a restarting leaf's HELLO does."""
    import socket

    from repro.cluster.replication import FRAME_CATALOG, _parse_catalog, recv_frame, send_frame

    ours, theirs = socket.socketpair()
    with ours, theirs:
        sender = threading.Thread(target=send_frame, args=(theirs, FRAME_CATALOG, payload))
        sender.start()
        kind, received = recv_frame(ours)
        sender.join()
    assert (kind, received) == (FRAME_CATALOG, payload)
    try:
        return _parse_catalog(received)
    except ReplicaWireError:
        return None


class TestCatalogFuzz:
    """A standby's CATALOG reply is the one wire payload parsed as a
    document.  Hostile but well-framed bytes — truncated, flipped,
    random, or valid JSON of the wrong shape — fail as a
    ReplicaWireError, the error the replica rung reads as "no replica"."""

    def test_the_sample_parses(self):
        token, tables = parse_catalog_frame(sample_catalog())
        assert token == "s1"
        assert [table.name for table in tables] == ["events", "metrics"]
        assert [len(table.blocks) for table in tables] == [3, 2]

    def test_every_truncation(self):
        payload = sample_catalog()
        for cut in range(len(payload)):
            parse_catalog_frame(payload[:cut])

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_byte_flips(self, data):
        buf = bytearray(sample_catalog())
        for _ in range(data.draw(st.integers(min_value=1, max_value=4))):
            index = data.draw(st.integers(min_value=0, max_value=len(buf) - 1))
            buf[index] = data.draw(st.integers(min_value=0, max_value=255))
        parse_catalog_frame(bytes(buf))

    @settings(max_examples=100, deadline=None)
    @given(st.binary(min_size=0, max_size=200))
    def test_random_payloads(self, payload):
        parse_catalog_frame(payload)

    @settings(max_examples=150, deadline=None)
    @given(
        st.recursive(
            st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
            lambda inner: st.lists(inner, max_size=4)
            | st.dictionaries(
                st.sampled_from(["session", "tables", "name", "rows_ingested", "rows_expired", "blocks"]),
                inner,
                max_size=6,
            ),
            max_leaves=20,
        )
    )
    def test_json_of_the_wrong_shape(self, doc):
        import json

        parse_catalog_frame(json.dumps(doc).encode())
